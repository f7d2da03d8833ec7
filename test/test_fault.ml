(* Deterministic fault-injection harness for the client↔log transport.

   Three layers of coverage:

   - a scripted fault-schedule matrix per protocol (FIDO2 / TOTP /
     password): drop, duplication, delay, reordering, corruption, and
     log crashes at exact message legs.  Every scenario must end in
     {completed} or {typed error} — never hung or half-mutated — and the
     world must be fully recoverable afterwards: a clean re-drive
     succeeds, the audit chain verifies, and the client's and log's
     presignature/identifier cursors agree (no presignature is ever
     double-consumed, no record double-appended);

   - seeded-storm determinism: the same seed replays the same world
     byte for byte (outcomes, channel meters, Merkle head, event
     stream);

   - the multilog availability matrix (n ∈ {3,5}): every online subset
     of size ≥ t authenticates and audits, any smaller subset fails
     typed, and enrollment/registration failures roll back cleanly.

   Seed threading: `--seed S` (stripped before alcotest sees argv) or
   LARCH_SEED=S reseeds the storm tests; the scripted matrix is
   deliberately seed-independent so its assertions stay exact.
   LARCH_FAULT_FAST=1 trims the matrix for the @fault/@smoke aliases. *)

open Larch_core
module Fault = Larch_net.Fault
module Transport = Larch_net.Transport
module Channel = Larch_net.Channel
module Clock = Larch_util.Clock
module Obs = Larch_obs

let seed, argv =
  let rec strip acc s = function
    | [] -> (s, List.rev acc)
    | "--seed" :: v :: rest -> strip acc (Some v) rest
    | a :: rest -> strip (a :: acc) s rest
  in
  let s, rest = strip [] None (Array.to_list Sys.argv) in
  let s =
    match s with
    | Some s -> s
    | None -> Option.value (Sys.getenv_opt "LARCH_SEED") ~default:"42"
  in
  (s, Array.of_list rest)

let fast = Sys.getenv_opt "LARCH_FAULT_FAST" <> None

let () =
  Printf.printf "fault harness: seed=%s%s (reproduce: LARCH_SEED=%s dune exec test/test_fault.exe)\n%!"
    seed
    (if fast then " [fast]" else "")
    seed

(* --- world scaffolding: each test runs inside one seeded world --- *)

(* Simulated clock, event stream on, one DRBG; the real clock and a quiet
   event stream come back afterwards, even when an assertion fails. *)
let in_world ~entropy body = fst (Scenario.run ~events:true ~entropy body)

(* The only acceptable ends of a faulty operation are [Scenario.attempt]'s
   typed outcomes; an untyped exception escapes it and fails the test. *)
let outcome_string : Scenario.outcome -> string = function
  | Completed -> "completed"
  | Transport_error e -> "typed: transport " ^ Transport.failure_to_string e.Transport.last
  | Protocol_error m -> "typed: protocol " ^ m
  | Log_misbehaved m -> "typed: log-misbehaved " ^ m

let expect_completed name = function
  | Scenario.Completed -> ()
  | o -> Alcotest.failf "%s: expected completion, got %s" name (outcome_string o)

let expect_typed name = function
  | Scenario.Completed -> Alcotest.failf "%s: expected a typed failure, completed instead" name
  | _ -> ()

let records log = List.length (Log_service.audit log ~client_id:"alice" ~token:"pw")

(* A scripted world: "alice" enrolled with [presignatures] and registered
   for [proto] at one relying party; [body] gets the log, the client and
   the login (client auth plus relying-party check). *)
let scripted ~entropy ~presignatures proto body =
  in_world ~entropy @@ fun w ->
  let log = Log_service.create ~rand_bytes:w.rand () in
  let client, login = Scenario.session ~rand:w.rand log "alice" ~presignatures [ proto ] in
  body log client (fun () -> login proto)

(* Run one scripted scenario: install the schedule, drive [auth] once,
   then verify the recovery invariants — injector off, resync, a clean
   re-drive succeeds, and the audit chain verifies end to end. *)
let run_scenario ~name ~schedule ~events (log, client) (auth : unit -> unit) :
    Scenario.outcome * Transport.stats * int =
  let recs0 = records log in
  Transport.reset_stats client.Client.transport;
  Transport.set_injector client.Client.transport (Some (Fault.scripted ~events schedule));
  let outcome = Scenario.attempt auth in
  let stats = Transport.stats client.Client.transport in
  let faulty_recs = records log - recs0 in
  Transport.set_injector client.Client.transport None;
  Client.resync client;
  (match Scenario.attempt auth with
  | Completed -> ()
  | o -> Alcotest.failf "%s: world wedged — clean re-drive failed: %s" name (outcome_string o));
  (match Client.audit_verified client with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: audit chain broken after recovery: %s" name e);
  (outcome, stats, faulty_recs)

(* --- FIDO2 schedule matrix ---

   Message legs per attempt-free session: 0 begin-req, 1 begin-resp,
   2 commit-req, 3 commit-resp, 4 finish-req, 5 finish-resp (retries and
   resync shift later indices). *)

let fido2_scenario ~name ~schedule ?(events = []) ~check () =
  scripted ~entropy:("fault-matrix-fido2-" ^ name) ~presignatures:8 Fido2
  @@ fun log client auth ->
  let before_c = Client.presignatures_remaining client in
  let before_l = Log_service.presignatures_remaining log ~client_id:"alice" in
  let outcome, stats, faulty_recs = run_scenario ~name ~schedule ~events (log, client) auth in
  let used_c = before_c - Client.presignatures_remaining client in
  let used_l = before_l - Log_service.presignatures_remaining log ~client_id:"alice" in
  Alcotest.(check int) (name ^ ": client and log presig cursors agree") used_c used_l;
  check ~outcome ~stats ~faulty_recs ~used:used_c

let fido2_drop_request () =
  fido2_scenario ~name:"fido2 drop begin-request" ~schedule:[ (0, Fault.Drop) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ~used ->
      expect_completed "fido2 drop-req" outcome;
      Alcotest.(check int) "one retry" 1 stats.Transport.retries;
      Alcotest.(check int) "one record for the faulty auth" 1 faulty_recs;
      Alcotest.(check int) "one presig per logical auth" 2 used)
    ()

let fido2_drop_response () =
  (* the log executed and consumed a presignature; the retry must be
     answered from the replay cache, not re-executed *)
  fido2_scenario ~name:"fido2 drop begin-response" ~schedule:[ (1, Fault.Drop) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ~used ->
      expect_completed "fido2 drop-resp" outcome;
      Alcotest.(check bool) "replay cache answered the retry" true (stats.Transport.replays >= 1);
      Alcotest.(check int) "no double record" 1 faulty_recs;
      Alcotest.(check int) "no extra presignature burned" 2 used)
    ()

let fido2_duplicate_commit () =
  fido2_scenario ~name:"fido2 duplicate commit-request" ~schedule:[ (2, Fault.Duplicate) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ~used ->
      expect_completed "fido2 dup-commit" outcome;
      Alcotest.(check bool) "duplicate absorbed by cache" true (stats.Transport.replays >= 1);
      Alcotest.(check int) "record appended once" 1 faulty_recs;
      Alcotest.(check int) "presigs" 2 used)
    ()

let fido2_corrupt_request () =
  fido2_scenario ~name:"fido2 corrupt begin-request"
    ~schedule:[ (0, Fault.Corrupt Fault.Truncate) ]
    ~check:(fun ~outcome ~stats ~faulty_recs:_ ~used ->
      expect_completed "fido2 corrupt-req" outcome;
      (* the log rejected the damaged bytes; the clean retransmission went through *)
      Alcotest.(check int) "one retry after garbled" 1 stats.Transport.retries;
      Alcotest.(check int) "presigs" 2 used)
    ()

let fido2_crash_mid_session () =
  (* the log dies between round 1 and round 2 and comes back with its
     volatile signing session gone: the operation must fail typed, the
     consumed presignature is burned forward, and the next auth works *)
  fido2_scenario ~name:"fido2 crash mid-session" ~schedule:[]
    ~events:[ (2, Fault.Crash); (3, Fault.Restart) ]
    ~check:(fun ~outcome ~stats:_ ~faulty_recs ~used ->
      expect_typed "fido2 crash-mid" outcome;
      Alcotest.(check int) "no record from the dead session" 0 faulty_recs;
      Alcotest.(check int) "burned + clean-auth presigs" 2 used)
    ()

let fido2_give_up_redrive () =
  (* every attempt's request leg drops: the transport gives up, the
     client rolls the session back (burning its possibly-leaked
     presignature) and re-drives a fresh session once — which succeeds *)
  fido2_scenario ~name:"fido2 give-up and re-drive"
    ~schedule:[ (0, Fault.Drop); (2, Fault.Drop); (4, Fault.Drop); (6, Fault.Drop) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ~used ->
      expect_completed "fido2 redrive" outcome;
      Alcotest.(check bool) "exhausted the retry budget" true (stats.Transport.retries >= 3);
      Alcotest.(check int) "one record (re-driven session)" 1 faulty_recs;
      Alcotest.(check int) "abandoned presig burned, not reused" 3 used)
    ()

(* --- TOTP schedule matrix (invoke: legs 0 request, 1 response) --- *)

let totp_scenario ~name ~schedule ?(events = []) ~check () =
  scripted ~entropy:("fault-matrix-totp-" ^ name) ~presignatures:1 Totp
  @@ fun log client auth ->
  let outcome, stats, faulty_recs = run_scenario ~name ~schedule ~events (log, client) auth in
  check ~outcome ~stats ~faulty_recs

let totp_drop_request () =
  totp_scenario ~name:"totp drop request" ~schedule:[ (0, Fault.Drop) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ->
      expect_completed "totp drop-req" outcome;
      Alcotest.(check int) "one retry" 1 stats.Transport.retries;
      Alcotest.(check int) "single record" 1 faulty_recs)
    ()

let totp_drop_response () =
  (* the 2PC ran and the log recorded; the retried invocation must be
     deduplicated on the encrypted nonce, not run (or logged) again *)
  totp_scenario ~name:"totp drop response" ~schedule:[ (1, Fault.Drop) ]
    ~check:(fun ~outcome ~stats:_ ~faulty_recs ->
      expect_completed "totp drop-resp" outcome;
      Alcotest.(check int) "nonce-deduped: no double record" 1 faulty_recs)
    ()

let totp_duplicate () =
  totp_scenario ~name:"totp duplicated invocation" ~schedule:[ (0, Fault.Duplicate) ]
    ~check:(fun ~outcome ~stats:_ ~faulty_recs ->
      expect_completed "totp dup" outcome;
      Alcotest.(check int) "nonce-deduped: no double record" 1 faulty_recs)
    ()

let totp_crash_no_recovery () =
  totp_scenario ~name:"totp crash without restart" ~schedule:[]
    ~events:[ (0, Fault.Crash) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ->
      expect_typed "totp crash" outcome;
      Alcotest.(check int) "all attempts timed out" 4 stats.Transport.timeouts;
      Alcotest.(check int) "nothing recorded" 0 faulty_recs)
    ()

(* --- password schedule matrix (call: legs 0 request, 1 response) --- *)

let pw_ids_aligned name log client =
  Alcotest.(check (list string))
    (name ^ ": client/log identifier lists aligned")
    (Log_service.pw_registered_ids log ~client_id:"alice")
    (Client.pw_side client).Client.pw_ids

let pw_scenario ~name ~schedule ?(events = []) ?(auths = 1) ~check () =
  scripted ~entropy:("fault-matrix-pw-" ^ name) ~presignatures:1 Password
  @@ fun log client login ->
  let auth () = for _ = 1 to auths do login () done in
  let outcome, stats, faulty_recs = run_scenario ~name ~schedule ~events (log, client) auth in
  pw_ids_aligned name log client;
  check ~outcome ~stats ~faulty_recs

let pw_drop_request () =
  pw_scenario ~name:"password drop request" ~schedule:[ (0, Fault.Drop) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ->
      expect_completed "pw drop-req" outcome;
      Alcotest.(check int) "one retry" 1 stats.Transport.retries;
      Alcotest.(check int) "single record" 1 faulty_recs)
    ()

let pw_corrupt_response () =
  pw_scenario ~name:"password corrupt response" ~schedule:[ (1, Fault.Corrupt Fault.Truncate) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ->
      expect_completed "pw corrupt-resp" outcome;
      Alcotest.(check bool) "retry answered from cache" true (stats.Transport.replays >= 1);
      Alcotest.(check int) "no double record" 1 faulty_recs)
    ()

let pw_overdelayed_request () =
  (* the request arrives after the client gave up: the log has already
     appended the record, so the retry must be a pure replay *)
  pw_scenario ~name:"password over-delayed request" ~schedule:[ (0, Fault.Delay 100.) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ->
      expect_completed "pw over-delay" outcome;
      Alcotest.(check int) "timed out once" 1 stats.Transport.timeouts;
      Alcotest.(check bool) "replay, not re-execution" true (stats.Transport.replays >= 1);
      Alcotest.(check int) "record appended exactly once" 1 faulty_recs)
    ()

let pw_small_delay () =
  pw_scenario ~name:"password sub-timeout delay" ~schedule:[ (0, Fault.Delay 0.1) ]
    ~check:(fun ~outcome ~stats ~faulty_recs ->
      expect_completed "pw delay" outcome;
      Alcotest.(check int) "no retries for a tolerable delay" 0 stats.Transport.retries;
      Alcotest.(check int) "single record" 1 faulty_recs)
    ()

let pw_reorder_stale () =
  (* leg 2 = second auth's request: the network re-delivers the first
     auth's (already answered) request first — the log replays it from
     cache without appending a third record *)
  pw_scenario ~name:"password stale re-delivery" ~schedule:[ (2, Fault.Reorder) ] ~auths:2
    ~check:(fun ~outcome ~stats ~faulty_recs ->
      expect_completed "pw reorder" outcome;
      Alcotest.(check int) "stale copy answered from cache" 1 stats.Transport.replays;
      Alcotest.(check int) "two auths, two records" 2 faulty_recs)
    ()

let pw_crash_restart () =
  (* per-client password state is durable: a crash+restart between the
     two legs only costs a retry *)
  pw_scenario ~name:"password crash and restart" ~schedule:[]
    ~events:[ (0, Fault.Crash); (1, Fault.Restart) ]
    ~check:(fun ~outcome ~stats:_ ~faulty_recs ->
      expect_completed "pw crash-restart" outcome;
      Alcotest.(check int) "single record" 1 faulty_recs)
    ()

(* --- seeded-storm determinism: same seed ⇒ identical transcript --- *)

let transcript ~run_tag ~auths : string =
  in_world ~entropy:(Printf.sprintf "storm-world-%s" seed) @@ fun w ->
  ignore run_tag;
  (* the run tag must NOT influence the world *)
  let log = Log_service.create ~rand_bytes:w.rand () in
  let protos = Scenario.[ Fido2; Totp; Password ] in
  let client, login =
    Scenario.session ~rand:w.rand log "alice" ~presignatures:(2 * auths * 2) protos
  in
  Transport.set_injector client.Client.transport
    (Some (Fault.seeded ~seed:("storm-" ^ seed) Fault.stormy));
  for i = 1 to auths do
    List.iter
      (fun p ->
        Clock.advance 30.;
        Scenario.line w "%s/%d %s" (Scenario.proto_name p) i
          (outcome_string (Scenario.attempt (fun () -> login p))))
      protos
  done;
  Transport.set_injector client.Client.transport None;
  Client.resync client;
  let snap = Client.channel_snapshot client in
  Scenario.line w "wire up=%d down=%d msgs=%d rts=%d" snap.Channel.up snap.Channel.down
    snap.Channel.msgs snap.Channel.rts;
  let resp = Log_service.audit_with_head log ~client_id:"alice" ~token:"pw" in
  Scenario.line w "merkle head size=%d root=%s" resp.Log_service.sth.Larch_merkle.Merkle.Sth.size
    (Larch_util.Hex.encode resp.Log_service.sth.Larch_merkle.Merkle.Sth.root);
  let st = Transport.stats client.Client.transport in
  Scenario.line w "stats a=%d r=%d t=%d f=%d p=%d" st.Transport.attempts st.Transport.retries
    st.Transport.timeouts st.Transport.faults st.Transport.replays;
  List.iter (fun e -> Scenario.line w "%s" (Obs.Events.to_string e)) (Obs.Events.recent ());
  Buffer.contents w.out

let storm_deterministic () =
  let auths = if fast then 1 else 2 in
  let t1 = transcript ~run_tag:1 ~auths in
  let t2 = transcript ~run_tag:2 ~auths in
  if not (String.equal t1 t2) then
    Printf.printf "--- run 1 ---\n%s--- run 2 ---\n%s%!" t1 t2;
  Alcotest.(check bool)
    (Printf.sprintf "seed %s replays byte-for-byte (LARCH_SEED=%s to reproduce)" seed seed)
    true (String.equal t1 t2);
  (* the transcript must actually contain injected faults, or the storm
     profile silently stopped injecting *)
  Alcotest.(check bool) "storm produced transport events" true
    (String.length t1 > 0
    && (String.index_opt t1 '\n' <> None)
    && List.exists
         (fun line ->
           List.exists
             (fun k -> String.length line >= String.length k)
             [ "transport." ])
         [ t1 ])

(* --- multilog availability matrix --- *)

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(* Run [body] over a fresh n-log multilog with client "alice" enrolled
   and registered at rp.com. *)
let multilog_world ~n ~threshold body () =
  in_world ~entropy:(Printf.sprintf "fault-multilog-%d-%d" n threshold) @@ fun w ->
  let ml = Multilog.create ~n ~threshold ~rand_bytes:w.rand () in
  let c = Multilog.enroll ml ~client_id:"alice" ~account_password:"pw" in
  ignore (Multilog.register ml c ~rp_name:"rp.com");
  body ml c

let availability_matrix ~n ~threshold =
  multilog_world ~n ~threshold @@ fun ml c ->
  let expected = Multilog.authenticate ml c ~rp_name:"rp.com" ~now:(Clock.now ()) in
  for mask = 0 to (1 lsl n) - 1 do
    for i = 0 to n - 1 do
      Multilog.set_online ml i (mask land (1 lsl i) <> 0)
    done;
    let up = popcount mask in
    (match Multilog.authenticate ml c ~rp_name:"rp.com" ~now:(Clock.now ()) with
    | pw ->
        if up < threshold then
          Alcotest.failf "n=%d t=%d mask=%x: authenticated with only %d logs" n threshold mask up;
        Alcotest.(check string)
          (Printf.sprintf "n=%d mask=%x: password stable" n mask)
          expected pw
    | exception Multilog.Unavailable _ ->
        if up >= threshold then
          Alcotest.failf "n=%d t=%d mask=%x: unavailable with %d logs up" n threshold mask up);
    let res = Multilog.audit ml c in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d mask=%x: audit coverage flag" n mask)
      (up >= n - threshold + 1)
      res.Multilog.complete
  done;
  for i = 0 to n - 1 do
    Multilog.set_online ml i true
  done

let multilog_failover_event =
  multilog_world ~n:3 ~threshold:2 @@ fun ml c ->
  (* log 0 crashed (injector, not admin-down): the client must fail over
     past it mid-flight and still authenticate with logs 1 and 2 *)
  Multilog.set_injector ml 0 (Some (Fault.scripted ~events:[ (0, Fault.Crash) ] []));
  Obs.Events.clear ();
  ignore (Multilog.authenticate ml c ~rp_name:"rp.com" ~now:(Clock.now ()));
  Alcotest.(check bool) "failover event emitted" true
    (List.exists (fun e -> e.Obs.Events.kind = Obs.Events.Failover) (Obs.Events.recent ()));
  Multilog.set_injector ml 0 None;
  ignore (Multilog.authenticate ml c ~rp_name:"rp.com" ~now:(Clock.now ()))

let multilog_enroll_rollback () =
  in_world ~entropy:"fault-ml-enroll-rollback" @@ fun w ->
  let ml = Multilog.create ~n:3 ~threshold:2 ~rand_bytes:w.rand () in
  Multilog.set_online ml 2 false;
  (match Multilog.enroll ml ~client_id:"alice" ~account_password:"pw" with
  | _ -> Alcotest.fail "enrollment succeeded with a log down"
  | exception Transport.Error _ -> ());
  (* the first two logs were rolled back: a clean re-enrollment works *)
  Multilog.set_online ml 2 true;
  let c = Multilog.enroll ml ~client_id:"alice" ~account_password:"pw" in
  ignore (Multilog.register ml c ~rp_name:"rp.com");
  ignore (Multilog.authenticate ml c ~rp_name:"rp.com" ~now:(Clock.now ()));
  (* revoke leaves the client re-enrollable too *)
  Multilog.revoke ml c;
  let c2 = Multilog.enroll ml ~client_id:"alice" ~account_password:"pw" in
  ignore (Multilog.register ml c2 ~rp_name:"rp.com")

let multilog_register_rollback =
  multilog_world ~n:3 ~threshold:2 @@ fun ml c ->
  (* log 2 unreachable mid-registration: the identifier must be
     unregistered from the logs that already stored it *)
  Multilog.set_injector ml 2 (Some (Fault.scripted ~events:[ (0, Fault.Crash) ] []));
  (match Multilog.register ml c ~rp_name:"new.com" with
  | _ -> Alcotest.fail "registration succeeded with a log down"
  | exception Transport.Error _ -> ());
  Multilog.set_injector ml 2 None;
  Array.iter
    (fun log ->
      Alcotest.(check int) "identifier lists realigned" 1
        (List.length (Log_service.pw_registered_ids log ~client_id:"alice")))
    ml.Multilog.logs;
  let _pw = Multilog.register ml c ~rp_name:"new.com" in
  ignore (Multilog.authenticate ml c ~rp_name:"new.com" ~now:(Clock.now ()))

(* --- channel accounting edge cases --- *)

let channel_reset_fresh_round () =
  let ch = Channel.create () in
  ignore (Channel.send ch Channel.Client_to_log "abc");
  ignore (Channel.send ch Channel.Log_to_client "de");
  Channel.reset ch;
  let s = Channel.snapshot ch in
  Alcotest.(check int) "zeroed up" 0 s.Channel.up;
  Alcotest.(check int) "zeroed rts" 0 s.Channel.rts;
  (* the direction memory is cleared too: the next message opens a fresh
     round exactly as on a new channel *)
  ignore (Channel.send ch Channel.Log_to_client "x");
  let s = Channel.snapshot ch in
  Alcotest.(check int) "fresh round after reset" 1 s.Channel.rts;
  Alcotest.(check int) "one message" 1 s.Channel.msgs

let channel_zero_byte_metering () =
  let ch = Channel.create () in
  ignore (Channel.send ch Channel.Client_to_log "");
  ignore (Channel.send ch Channel.Log_to_client "");
  let s = Channel.snapshot ch in
  Alcotest.(check int) "zero bytes up" 0 s.Channel.up;
  Alcotest.(check int) "zero bytes down" 0 s.Channel.down;
  Alcotest.(check int) "messages still counted" 2 s.Channel.msgs;
  Alcotest.(check int) "rounds still flip" 1 s.Channel.rts

let duplicate_metering () =
  let ch = Channel.create () in
  let tr = Transport.create ch in
  Transport.set_injector tr (Some (Fault.scripted [ (0, Fault.Duplicate) ]));
  let v =
    Transport.call tr ~op:"x" ~req:(String.make 10 'q') ~decode:Option.some (fun _ ->
        String.make 5 'r')
  in
  Alcotest.(check string) "value delivered" (String.make 5 'r') v;
  let s = Channel.snapshot ch in
  Alcotest.(check int) "both copies metered" 20 s.Channel.up;
  Alcotest.(check int) "response metered once" 5 s.Channel.down;
  Alcotest.(check int) "three messages" 3 s.Channel.msgs;
  Alcotest.(check int) "one round trip" 1 s.Channel.rts;
  let st = Transport.stats tr in
  Alcotest.(check int) "duplicate replay-cached" 1 st.Transport.replays

let reorder_metering () =
  let ch = Channel.create () in
  let tr = Transport.create ch in
  Transport.set_injector tr (Some (Fault.scripted [ (2, Fault.Reorder) ]));
  let echo n _ = String.make n 'r' in
  ignore (Transport.call tr ~op:"a" ~req:(String.make 4 'q') ~decode:Option.some (echo 2));
  ignore (Transport.call tr ~op:"b" ~req:(String.make 6 'q') ~decode:Option.some (echo 2));
  let s = Channel.snapshot ch in
  (* stale re-delivery of the 4-byte request is metered on the wire *)
  Alcotest.(check int) "up includes the stale copy" 14 s.Channel.up;
  Alcotest.(check int) "down" 4 s.Channel.down;
  Alcotest.(check int) "five messages" 5 s.Channel.msgs;
  Alcotest.(check int) "two round trips" 2 s.Channel.rts;
  Alcotest.(check int) "stale copy answered from cache" 1 (Transport.stats tr).Transport.replays

(* a clean-scheduled injector must meter exactly like the passthrough:
   turning fault injection on without faults is a zero-behavior change *)
let clean_injector_matches_passthrough () =
  let drive tr =
    ignore (Transport.call tr ~op:"a" ~req:"0123456789" ~decode:Option.some (fun _ -> "abcd"));
    Transport.post tr ~op:"b" ~req:"0123456" (fun _ -> ());
    ignore
      (Transport.call tr ~op:"c" ~req:"01" ~decode:Option.some ~meter_resp:false (fun _ -> "zz"));
    Transport.invoke tr ~op:"d" (fun () -> ())
  in
  let ch1 = Channel.create () in
  let t1 = Transport.create ch1 in
  drive t1;
  let ch2 = Channel.create () in
  let t2 = Transport.create ch2 in
  Transport.set_injector t2 (Some (Fault.scripted []));
  drive t2;
  let s1 = Channel.snapshot ch1 and s2 = Channel.snapshot ch2 in
  Alcotest.(check int) "up equal" s1.Channel.up s2.Channel.up;
  Alcotest.(check int) "down equal" s1.Channel.down s2.Channel.down;
  Alcotest.(check int) "msgs equal" s1.Channel.msgs s2.Channel.msgs;
  Alcotest.(check int) "rts equal" s1.Channel.rts s2.Channel.rts;
  let st1 = Transport.stats t1 in
  Alcotest.(check int) "passthrough keeps no stats" 0
    (st1.Transport.attempts + st1.Transport.retries + st1.Transport.faults)

let admin_down_fails_fast () =
  let tr = Transport.create (Channel.create ()) in
  Transport.set_admin_down tr true;
  (match Transport.invoke tr ~op:"x" (fun () -> ()) with
  | () -> Alcotest.fail "admin-down transport served a call"
  | exception Transport.Error e ->
      Alcotest.(check int) "no pointless retries" 1 e.Transport.attempts);
  Transport.set_admin_down tr false;
  Transport.invoke tr ~op:"x" (fun () -> ())

(* --- suites --- *)

let fido2_suite =
  let all =
    [
      ("drop begin-request", fido2_drop_request);
      ("drop begin-response (replay cache)", fido2_drop_response);
      ("duplicate commit-request", fido2_duplicate_commit);
      ("corrupt begin-request", fido2_corrupt_request);
      ("crash mid-session", fido2_crash_mid_session);
      ("give up and re-drive", fido2_give_up_redrive);
    ]
  in
  let all =
    if fast then
      List.filter
        (fun (n, _) -> n = "drop begin-response (replay cache)" || n = "crash mid-session")
        all
    else all
  in
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) all

let totp_suite =
  let all =
    [
      ("drop request", totp_drop_request);
      ("drop response (nonce dedup)", totp_drop_response);
      ("duplicate invocation", totp_duplicate);
      ("crash without restart", totp_crash_no_recovery);
    ]
  in
  let all =
    if fast then
      List.filter
        (fun (n, _) -> n = "drop response (nonce dedup)" || n = "crash without restart")
        all
    else all
  in
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) all

let pw_suite =
  let all =
    [
      ("drop request", pw_drop_request);
      ("corrupt response", pw_corrupt_response);
      ("over-delayed request", pw_overdelayed_request);
      ("sub-timeout delay", pw_small_delay);
      ("stale re-delivery", pw_reorder_stale);
      ("crash and restart", pw_crash_restart);
    ]
  in
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) all

let multilog_suite =
  let base =
    [
      Alcotest.test_case "availability matrix n=3 t=2" `Quick (availability_matrix ~n:3 ~threshold:2);
      Alcotest.test_case "failover event" `Quick multilog_failover_event;
      Alcotest.test_case "enrollment rollback" `Quick multilog_enroll_rollback;
      Alcotest.test_case "registration rollback" `Quick multilog_register_rollback;
    ]
  in
  if fast then base
  else
    base
    @ [
        Alcotest.test_case "availability matrix n=5 t=3" `Quick
          (availability_matrix ~n:5 ~threshold:3);
      ]

let () =
  Alcotest.run ~argv "faults"
    [
      ("fido2", fido2_suite);
      ("totp", totp_suite);
      ("password", pw_suite);
      ("determinism", [ Alcotest.test_case "seeded storm replays" `Quick storm_deterministic ]);
      ("multilog", multilog_suite);
      ( "accounting",
        [
          Alcotest.test_case "reset opens a fresh round" `Quick channel_reset_fresh_round;
          Alcotest.test_case "zero-byte metering" `Quick channel_zero_byte_metering;
          Alcotest.test_case "duplicate metering" `Quick duplicate_metering;
          Alcotest.test_case "reorder metering" `Quick reorder_metering;
          Alcotest.test_case "clean injector = passthrough" `Quick
            clean_injector_matches_passthrough;
          Alcotest.test_case "admin-down fails fast" `Quick admin_down_fails_fast;
        ] );
    ]

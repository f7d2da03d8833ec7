(* Overload robustness: bounded admission, deadline shedding, per-client
   rate limiting, client retry budgets, brownout degradation, and the
   deterministic overload scenario.

   The admission worlds run noop operations through real transports and
   the real Log_async loop under the seeded fiber runtime, so every shed
   and retry exercises the production path; the slow full-scenario
   determinism check is trimmed by LARCH_OVERLOAD_FAST=1 (the @overload
   alias), which keeps the unit worlds only. *)

open Larch_core
module Runtime = Larch_runtime.Runtime
module Transport = Larch_net.Transport
module Channel = Larch_net.Channel
module Clock = Larch_util.Clock
module Ecdsa = Larch_ec.Ecdsa

let fast = Sys.getenv_opt "LARCH_OVERLOAD_FAST" <> None
let base_time = 1_754_000_000.

let drbg = Larch_hash.Drbg.create ~entropy:"test-overload"
let rand n = Larch_hash.Drbg.generate drbg n

(* A world of [n] single-op clients in front of one admission loop.
   Returns per-client outcomes (Ok / typed failure) plus the loop's
   stats and the summed transport stats. *)
type outcome = Done | Shed_typed | Other of string

let admission_world ?(policy = Transport.default_policy) ~config ~clients ~ops_per_client ()
    : outcome array array * Log_async.stats * Transport.stats list =
  Clock.set base_time;
  let log = Log_service.create ~rand_bytes:rand () in
  let la = Log_async.create ~config log in
  let transports =
    Array.init clients (fun i ->
        let label = Printf.sprintf "c%02d" i in
        let tr = Transport.create ~label ~policy (Channel.create ~label ()) in
        Log_async.attach la ~client_id:label tr;
        tr)
  in
  let ops i = ops_per_client i in
  let outcomes = Array.init clients (fun i -> Array.make (ops i) (Other "unset")) in
  Runtime.run ~seed:"overload-unit" (fun () ->
      Log_async.start la;
      let fibers =
        List.init clients (fun i ->
            Runtime.spawn ~name:(Printf.sprintf "c%02d" i) (fun () ->
                for o = 0 to ops i - 1 do
                  outcomes.(i).(o) <-
                    (match Transport.invoke transports.(i) ~op:"noop" (fun () -> ()) with
                    | () -> Done
                    | exception Transport.Error { Transport.last = Transport.Overloaded _; _ }
                      ->
                        Shed_typed
                    | exception e -> Other (Printexc.to_string e))
                done))
      in
      List.iter (fun p -> try Runtime.await p with _ -> ()) fibers;
      Log_async.stop la);
  Clock.use_real_time ();
  (outcomes, Log_async.stats la, Array.to_list (Array.map Transport.stats transports))

let no_other outcomes =
  Array.iter
    (Array.iter (function
      | Other m -> Alcotest.failf "unexpected failure: %s" m
      | Done | Shed_typed -> ()))
    outcomes

(* --- bounded admission ------------------------------------------------- *)

let capacity_bound () =
  let config = { Log_async.off with Log_async.capacity = 4; service_time = 0.05 } in
  let outcomes, stats, tstats =
    admission_world ~config ~clients:10 ~ops_per_client:(fun _ -> 1) ()
  in
  no_other outcomes;
  Alcotest.(check bool) "capacity sheds happened" true (stats.Log_async.shed_capacity > 0);
  let shed_attempts = List.fold_left (fun a s -> a + s.Transport.overloads) 0 tstats in
  Alcotest.(check bool) "transports saw typed sheds" true (shed_attempts > 0);
  (* the bounded queue kept its promise *)
  Alcotest.(check bool)
    (Printf.sprintf "max_queue %d stays near capacity" stats.Log_async.max_queue)
    true
    (stats.Log_async.max_queue <= 12);
  (* every op either completed or failed typed — nothing hung (a hang
     would have deadlocked the runtime) *)
  let done_ =
    Array.fold_left
      (fun a row -> a + List.length (List.filter (( = ) Done) (Array.to_list row)))
      0 outcomes
  in
  Alcotest.(check bool) "most ops were eventually served" true (done_ >= 6)

(* --- deadline-aware shedding ------------------------------------------- *)

let deadline_shed () =
  (* single-attempt callers: the first deadline shed surfaces directly as
     a typed error (retry behavior is covered by the other tests) *)
  let policy =
    {
      Transport.max_attempts = 1;
      attempt_timeout = 0.3;
      base_backoff = 0.01;
      backoff_factor = 2.;
      max_backoff = 0.2;
      jitter = 0.2;
    }
  in
  let config = { Log_async.off with Log_async.service_time = 0.2 } in
  let outcomes, stats, _ =
    admission_world ~policy ~config ~clients:6 ~ops_per_client:(fun _ -> 1) ()
  in
  no_other outcomes;
  Alcotest.(check bool) "deadline sheds happened" true (stats.Log_async.shed_deadline > 0);
  let typed =
    Array.fold_left
      (fun a row -> a + List.length (List.filter (( = ) Shed_typed) (Array.to_list row)))
      0 outcomes
  in
  Alcotest.(check bool) "some callers got typed Overloaded" true (typed > 0);
  (* a served request never waited past its transport deadline: the loop
     shed it instead of burning service time on a caller that left *)
  Alcotest.(check bool)
    (Printf.sprintf "served queue delay %.3f bounded by the deadline"
       stats.Log_async.queue_delay_max)
    true
    (stats.Log_async.queue_delay_max <= 0.3)

(* --- per-client rate limiting and non-starvation ----------------------- *)

let zipf_fairness () =
  let config =
    {
      Log_async.off with
      Log_async.service_time = 0.001;
      client_rate = 2.;
      client_burst = 4.;
    }
  in
  (* client 0 is the Zipf head: 20 authentications against everyone
     else's 3 *)
  let outcomes, stats, tstats =
    admission_world ~config ~clients:4 ~ops_per_client:(fun i -> if i = 0 then 20 else 3) ()
  in
  no_other outcomes;
  Alcotest.(check bool) "rate sheds happened" true (stats.Log_async.shed_rate > 0);
  let hot = List.nth tstats 0 in
  Alcotest.(check bool) "the hot client was throttled" true (hot.Transport.overloads > 0);
  List.iteri
    (fun i st ->
      if i > 0 then
        Alcotest.(check int)
          (Printf.sprintf "client %d never shed (hot client could not starve it)" i)
          0 st.Transport.overloads)
    tstats;
  (* the hot client was slowed, not wedged: its ops still completed *)
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun o out ->
          Alcotest.(check bool) (Printf.sprintf "c%d op %d completed" i o) true (out = Done))
        row)
    outcomes

(* --- client retry budget ----------------------------------------------- *)

let retry_budget () =
  Clock.set base_time;
  let mk () =
    let policy = { Transport.default_policy with Transport.max_attempts = 10 } in
    let tr = Transport.create ~label:"budget" ~policy (Channel.create ~label:"budget" ()) in
    Transport.set_executor tr
      (Some (fun ~op:_ ~req:_ ~deadline:_ _closure -> raise (Transport.Overload 0.01)));
    tr
  in
  Runtime.run ~seed:"budget" (fun () ->
      (* no budget: retries run to max_attempts *)
      let tr = mk () in
      (match Transport.invoke tr ~op:"noop" (fun () -> ()) with
      | () -> Alcotest.fail "always-shedding executor cannot succeed"
      | exception Transport.Error e ->
          Alcotest.(check int) "unlimited: all attempts spent" 10 e.Transport.attempts;
          Alcotest.(check bool) "typed overloaded" true
            (match e.Transport.last with Transport.Overloaded _ -> true | _ -> false));
      Alcotest.(check int) "no budget denials" 0 (Transport.stats tr).Transport.budget_denied;
      (* a 2-token dry bucket stops the third attempt *)
      let tr = mk () in
      Transport.set_retry_budget tr ~capacity:2. ~refill_per_s:0.;
      (match Transport.invoke tr ~op:"noop" (fun () -> ()) with
      | () -> Alcotest.fail "always-shedding executor cannot succeed"
      | exception Transport.Error e ->
          Alcotest.(check int) "budget-limited attempts" 3 e.Transport.attempts);
      let st = Transport.stats tr in
      Alcotest.(check int) "denial counted" 1 st.Transport.budget_denied;
      Alcotest.(check bool) "bucket is dry" true (Transport.retry_budget_remaining tr < 1.);
      Transport.clear_retry_budget tr;
      Alcotest.(check bool) "cleared budget is unlimited" true
        (Transport.retry_budget_remaining tr = infinity));
  Clock.use_real_time ()

(* --- brownout state machine -------------------------------------------- *)

let brownout_hysteresis () =
  Clock.set base_time;
  let log = Log_service.create ~rand_bytes:rand () in
  let config =
    {
      Log_async.capacity = 0;
      service_time = 0.01;
      client_rate = 0.;
      client_burst = 0.;
      brownout_hi = 2;
      brownout_lo = 1;
      brownout_enter_ticks = 2;
      brownout_exit_ticks = 2;
    }
  in
  let la = Log_async.create ~config log in
  let transports =
    Array.init 6 (fun i ->
        let label = Printf.sprintf "b%02d" i in
        let tr = Transport.create ~label (Channel.create ~label ()) in
        Log_async.attach la ~client_id:label tr;
        tr)
  in
  let seen_degraded = ref false in
  Runtime.run ~seed:"brownout" (fun () ->
      Log_async.start la;
      let fibers =
        List.init 6 (fun i ->
            Runtime.spawn ~name:(Printf.sprintf "b%02d" i) (fun () ->
                for _ = 1 to 3 do
                  Transport.invoke transports.(i) ~op:"noop" (fun () ->
                      if Log_service.degraded log then seen_degraded := true)
                done))
      in
      List.iter Runtime.await fibers;
      (* calm traffic drives the hysteretic exit: sequential ops keep the
         queue at/below the low watermark *)
      for _ = 1 to 6 do
        Transport.invoke transports.(0) ~op:"noop" (fun () -> ())
      done;
      Alcotest.(check bool) "brownout exited on calm traffic" false (Log_async.brownout_active la);
      Log_async.stop la);
  Clock.use_real_time ();
  let stats = Log_async.stats la in
  Alcotest.(check bool) "brownout entered under pressure" true
    (stats.Log_async.brownout_entries >= 1);
  Alcotest.(check bool) "brownout ticks counted" true (stats.Log_async.brownout_ticks >= 1);
  Alcotest.(check bool) "requests were served while browned out" true !seen_degraded;
  Alcotest.(check bool) "log left degraded mode" false (Log_service.degraded log)

(* --- degraded attestations --------------------------------------------- *)

let degraded_attestation () =
  Clock.set base_time;
  let log = Log_service.create ~rand_bytes:rand () in
  let client =
    Client.create ~client_id:"deg-user" ~account_password:"pw" ~log ~rand_bytes:rand ()
  in
  Client.enroll ~presignature_count:1 client;
  let rp = Relying_party.create ~name:"rp.example" ~rand_bytes:rand () in
  let site_pw = Client.register_password client ~rp_name:"rp.example" in
  Relying_party.password_set rp ~username:"deg-user" ~password:site_pw;
  (* brownout: the ack carries a flagged proof-less attestation, which
     the client accepts and remembers as deferred *)
  Log_service.set_degraded log true;
  let pw = Client.authenticate_password client ~rp_name:"rp.example" in
  Alcotest.(check bool) "degraded auth still verifies at the relying party" true
    (Relying_party.password_login rp ~username:"deg-user" ~password:pw);
  Alcotest.(check bool) "inclusion deferred" true client.Client.att_deferred;
  (* the accept/reject set never changes: the password derived under
     brownout is the same one *)
  Alcotest.(check string) "same password as the registered one" site_pw pw;
  Log_service.set_degraded log false;
  (* the next verified audit covers the deferred record *)
  (match Client.audit_verified client with
  | Ok entries -> Alcotest.(check int) "audit sees the record" 1 (List.length entries)
  | Error m -> Alcotest.failf "audit failed: %s" m);
  Alcotest.(check bool) "deferral cleared by the verified audit" false
    client.Client.att_deferred;
  (* codec: the degraded form round-trips and is visibly smaller than the
     full form (no proof, no padding) *)
  let sth =
    {
      Larch_merkle.Merkle.Sth.size = 1;
      root = String.make 32 '\042';
      time = base_time;
      signature = String.make 64 '\007';
    }
  in
  let full =
    {
      Log_service.index = 3;
      record = "rec";
      proof = List.init 32 (fun _ -> String.make 32 '\001');
      sth;
      degraded = false;
    }
  in
  let deg = { full with Log_service.proof = []; degraded = true } in
  (match Log_service.decode_attestation (Log_service.encode_attestation deg) with
  | Ok a ->
      Alcotest.(check bool) "degraded flag survives the wire" true a.Log_service.degraded;
      Alcotest.(check int) "index survives" 3 a.Log_service.index;
      Alcotest.(check string) "record survives" "rec" a.Log_service.record;
      Alcotest.(check (list string)) "no proof on the wire" [] a.Log_service.proof
  | Error m -> Alcotest.failf "degraded attestation does not round-trip: %s" m);
  Alcotest.(check bool) "degraded form is smaller on the wire" true
    (String.length (Log_service.encode_attestation deg)
    < String.length (Log_service.encode_attestation full));
  Clock.use_real_time ()

(* A misbehaving log acks under brownout without ever appending the
   record: its tree stays self-consistent, but the stashed (index,
   record) pair has no matching leaf, so the next verified audit must
   error instead of silently clearing the deferral. *)
let degraded_ack_not_logged () =
  Clock.set base_time;
  let log = Log_service.create ~rand_bytes:rand () in
  let client =
    Client.create ~client_id:"phantom-user" ~account_password:"pw" ~log ~rand_bytes:rand ()
  in
  Client.enroll ~presignature_count:1 client;
  let rp = Relying_party.create ~name:"rp.example" ~rand_bytes:rand () in
  let site_pw = Client.register_password client ~rp_name:"rp.example" in
  Relying_party.password_set rp ~username:"phantom-user" ~password:site_pw;
  Log_service.set_degraded log true;
  ignore (Client.authenticate_password client ~rp_name:"rp.example");
  Log_service.set_degraded log false;
  (* the honest ack above was appended; forge one the log never logged *)
  client.Client.att_pending <-
    (5, "record the log never appended") :: client.Client.att_pending;
  (match Client.audit_verified client with
  | Ok _ -> Alcotest.fail "audit cleared a deferral the log never logged"
  | Error msg -> Alcotest.(check bool) "log named" true (String.sub msg 0 3 = "log"));
  Alcotest.(check bool) "deferral not cleared" true client.Client.att_deferred;
  Alcotest.(check int) "the honest ack is discharged, the phantom one kept" 1
    (List.length client.Client.att_pending);
  Clock.use_real_time ()

(* --- Ecdsa.verify_batch edges (the admission loop's batch verifier) ---- *)

let verify_batch_edges () =
  let sk, pk = Ecdsa.keygen ~rand_bytes:rand in
  let sk2, pk2 = Ecdsa.keygen ~rand_bytes:rand in
  let sign ?(even_r = true) sk msg = Ecdsa.sign ~even_r ~sk msg in
  (* empty batch *)
  Alcotest.(check int) "empty batch" 0 (Array.length (Ecdsa.verify_batch []));
  (* singletons *)
  Alcotest.(check (array bool)) "valid singleton" [| true |]
    (Ecdsa.verify_batch [ (pk, "m", sign sk "m") ]);
  Alcotest.(check (array bool)) "wrong-key singleton" [| false |]
    (Ecdsa.verify_batch [ (pk2, "m", sign sk "m") ]);
  (* duplicate signatures in one batch *)
  let s = sign sk "dup" in
  Alcotest.(check (array bool)) "duplicates verify" [| true; true |]
    (Ecdsa.verify_batch [ (pk, "dup", s); (pk, "dup", s) ]);
  (* one bad signature: the combined check fails and the individual
     fallback must keep the accept set exactly equal to [verify]'s *)
  let batch =
    [
      (pk, "a", sign sk "a");
      (pk, "b", sign sk "b");
      (pk2, "c", sign sk "c"); (* wrong key *)
      (pk2, "d", sign sk2 "d");
    ]
  in
  let batched = Ecdsa.verify_batch batch in
  let individual =
    Array.of_list (List.map (fun (pk, m, s) -> Ecdsa.verify ~pk m s) batch)
  in
  Alcotest.(check (array bool)) "fallback matches individual verification" individual batched;
  Alcotest.(check (array bool)) "accept set is (T,T,F,T)" [| true; true; false; true |] batched;
  (* signatures not normalized with even_r (the fallback's other trigger):
     the accept set still matches individual verification *)
  let raw = List.init 8 (fun i -> Printf.sprintf "raw-%d" i) in
  let batch = List.map (fun m -> (pk, m, sign ~even_r:false sk m)) raw in
  Alcotest.(check (array bool)) "non-normalized signatures all accepted"
    (Array.make 8 true) (Ecdsa.verify_batch batch)

(* --- the full scenario is deterministic -------------------------------- *)

let scenario_deterministic () =
  let w1 = Overload.run ~seed:"utest" ~mult:2 in
  let w2 = Overload.run ~seed:"utest" ~mult:2 in
  Alcotest.(check string) "same seed, same digest" w1.Overload.digest w2.Overload.digest;
  Alcotest.(check bool) "overload pressure was real" true
    (w1.Overload.admission.Log_async.shed_total > 0);
  Alcotest.(check bool) "brownout entered and recovered" true
    (w1.Overload.admission.Log_async.brownout_entries >= 1 && w1.Overload.brownout_recovered);
  Alcotest.(check int) "every audit verified" 0 w1.Overload.audits_failed;
  Alcotest.(check bool) "fsck clean after the storm" true w1.Overload.fsck_clean;
  let w3 = Overload.run ~seed:"utest-b" ~mult:2 in
  Alcotest.(check bool) "different seed, different transcript" true
    (w3.Overload.digest <> w1.Overload.digest)

let () =
  let slow = if fast then [] else [ Alcotest.test_case "two runs, one digest" `Slow scenario_deterministic ] in
  Alcotest.run "overload"
    [
      ( "admission",
        [
          Alcotest.test_case "bounded capacity sheds at the door" `Quick capacity_bound;
          Alcotest.test_case "deadline-aware shedding" `Quick deadline_shed;
          Alcotest.test_case "zipf fairness and rate limits" `Quick zipf_fairness;
        ] );
      ("transport", [ Alcotest.test_case "retry budget" `Quick retry_budget ]);
      ( "brownout",
        [
          Alcotest.test_case "hysteretic state machine" `Quick brownout_hysteresis;
          Alcotest.test_case "degraded attestations defer inclusion" `Quick degraded_attestation;
          Alcotest.test_case "degraded ack without append is caught" `Quick
            degraded_ack_not_logged;
        ] );
      ("ecdsa", [ Alcotest.test_case "verify_batch edges" `Quick verify_batch_edges ]);
      ("scenario", slow);
    ]

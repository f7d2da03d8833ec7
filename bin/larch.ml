(* The larch command-line driver.

   Runs complete, narrated protocol scenarios against an in-process log
   service — the fastest way to see each paper mechanism end to end:

     larch demo fido2        one FIDO2 authentication, with timings
     larch demo totp         split-secret TOTP with n decoy accounts
     larch demo password     password derivation over n relying parties
     larch demo multilog     2-of-3 logs with a failure
     larch demo compromise   stolen-device detection + revocation
     larch demo recovery     encrypted backup + recovery
     larch sizes             the byte-level constants of every protocol
     larch circuits          statement-circuit statistics
     larch trace <demo>      a demo under the observability layer: span
                             tree, metrics table, and the log-service
                             event stream (optionally Chrome JSON) *)

open Larch_core
module Obs = Larch_obs

let rand = Larch_hash.Drbg.system ()

let world () =
  let log = Log_service.create ~rand_bytes:rand () in
  (log, Scenario.client ~password:"cli password" ~rand log "cli-user")

let timed label f =
  let r, dt = Obs.Trace.timed label f in
  Printf.printf "  %-38s %7.1f ms\n%!" label (dt *. 1000.);
  r

let demo_fido2 () =
  print_endline "FIDO2 split-secret authentication (paper §3)";
  let _log, client = world () in
  timed "enroll (16 presignatures)" (fun () -> Client.enroll ~presignature_count:16 client);
  let rp = Relying_party.create ~name:"github.com" ~rand_bytes:rand () in
  let pk = timed "register at github.com" (fun () -> Client.register_fido2 client ~rp_name:"github.com") in
  Relying_party.fido2_register rp ~username:"cli-user" ~pk;
  let challenge = Relying_party.fido2_challenge rp ~username:"cli-user" in
  let assertion =
    timed "authenticate (ZK proof + 2P-ECDSA)" (fun () ->
        Client.authenticate_fido2 client ~rp_name:"github.com" ~challenge)
  in
  Printf.printf "  relying party verdict: %s\n"
    (if Relying_party.fido2_login rp ~username:"cli-user" assertion then "accepted" else "REJECTED");
  let snap = Client.channel_snapshot client in
  Printf.printf "  wire: %.2f MiB up / %d B down, %d round trips\n"
    (float_of_int snap.Larch_net.Channel.up /. 1048576.)
    snap.Larch_net.Channel.down snap.Larch_net.Channel.rts;
  0

let demo_totp n =
  Printf.printf "TOTP split-secret authentication with %d registrations (paper §4)\n" n;
  let _log, client = world () in
  Client.enroll ~presignature_count:1 client;
  let rp = Relying_party.create ~name:"target.example" ~rand_bytes:rand () in
  let key = Relying_party.totp_register rp ~username:"cli-user" in
  Client.register_totp client ~rp_name:"target.example" ~totp_key:key;
  for i = 2 to n do
    Client.register_totp client
      ~rp_name:(Printf.sprintf "decoy%02d.example" i)
      ~totp_key:(rand 20)
  done;
  let time = Unix.gettimeofday () in
  let outcome =
    timed "garbled-circuit 2PC" (fun () ->
        Client.authenticate_totp_detailed client ~rp_name:"target.example" ~time)
  in
  Printf.printf "  code %s; offline %.0f ms / online %.0f ms\n"
    (Larch_auth.Totp.code_to_string outcome.Totp_protocol.code)
    (outcome.Totp_protocol.timings.Larch_mpc.Yao.offline_seconds *. 1000.)
    (outcome.Totp_protocol.timings.Larch_mpc.Yao.online_seconds *. 1000.);
  Printf.printf "  relying party verdict: %s\n"
    (if Relying_party.totp_login rp ~username:"cli-user" ~time outcome.Totp_protocol.code then
       "accepted"
     else "REJECTED");
  0

let demo_password n =
  Printf.printf "password derivation over %d relying parties (paper §5)\n" n;
  let _log, client = world () in
  Client.enroll ~presignature_count:1 client;
  let rp = Relying_party.create ~name:"target.example" ~rand_bytes:rand () in
  let pw = Client.register_password client ~rp_name:"target.example" in
  Relying_party.password_set rp ~username:"cli-user" ~password:pw;
  for i = 2 to n do
    ignore (Client.register_password client ~rp_name:(Printf.sprintf "decoy%03d.example" i))
  done;
  let pw' =
    timed "authenticate (GK15 proofs + blinded DH)" (fun () ->
        Client.authenticate_password client ~rp_name:"target.example")
  in
  Printf.printf "  relying party verdict: %s\n"
    (if Relying_party.password_login rp ~username:"cli-user" ~password:pw' then "accepted"
     else "REJECTED");
  let snap = Client.channel_snapshot client in
  Printf.printf "  wire this session: %.2f KiB\n"
    (float_of_int (snap.Larch_net.Channel.up + snap.Larch_net.Channel.down) /. 1024.);
  0

let demo_multilog () =
  print_endline "2-of-3 multi-log deployment (paper §6)";
  (* each log keeps its durable state in its own store directory on a
     shared faultable disk (log0/, log1/, log2/) *)
  let disk = Larch_store.Disk.create ~seed:"multilog-demo" () in
  let ml = Multilog.create ~disk ~n:3 ~threshold:2 ~rand_bytes:rand () in
  let c = Multilog.enroll ml ~client_id:"cli-user" ~account_password:"pw" in
  let pw = Multilog.register ml c ~rp_name:"rp.example" in
  ignore pw;
  Multilog.set_online ml 1 false;
  (match Multilog.authenticate ml c ~rp_name:"rp.example" ~now:(Unix.gettimeofday ()) with
  | _ -> print_endline "  authenticated with log #1 offline"
  | exception Multilog.Unavailable m -> Printf.printf "  unavailable: %s\n" m);
  (* kill log #2 outright: it recovers from its own WAL, peers untouched *)
  Log_service.restart ml.Multilog.logs.(2);
  print_endline "  log #2 killed and recovered from its write-ahead log";
  let res = Multilog.audit ml c in
  Printf.printf "  audit: %d entries, coverage %s\n" (List.length res.Multilog.entries)
    (if res.Multilog.complete then "complete" else "incomplete");
  0

let demo_compromise () =
  print_endline "stolen-device detection and revocation (paper §1, §2.4)";
  let log = Log_service.create ~rand_bytes:rand () in
  let client, login =
    Scenario.session ~password:"cli password" ~rp_name:"bank.example" ~rand log "cli-user"
      ~presignatures:6 [ Fido2 ]
  in
  let login () = login Fido2 in
  login ();
  print_endline "  user logs in once";
  login ();
  login ();
  print_endline "  attacker (with full device state) logs in twice";
  let anomalies = Client.detect_anomalies client ~expected:[ (Types.Fido2, "bank.example") ] in
  Printf.printf "  audit flags %d unexpected authentications\n" (List.length anomalies);
  Client.revoke_all client;
  print_endline "  shares revoked at the log; stolen state is inert";
  0

let demo_recovery () =
  print_endline "encrypted backup and account recovery (paper §9)";
  let log, client = world () in
  Client.enroll ~presignature_count:4 client;
  ignore (Client.register_password client ~rp_name:"mail.example");
  let bytes = Backup.store client in
  Printf.printf "  sealed state stored at log: %d bytes\n" bytes;
  (match Backup.recover ~log ~client_id:"cli-user" ~account_password:"cli password" ~rand_bytes:rand with
  | Ok restored ->
      ignore (Client.authenticate_password restored ~rp_name:"mail.example");
      print_endline "  recovered on a fresh device; authentication works"
  | Error e -> Printf.printf "  recovery failed: %s\n" e);
  0

(* Deterministic faulty-transport demo: run the same seeded world twice —
   same DRBG for all randomness, same seeded fault injector, simulated
   clock — and show that the two transcripts (operation outcomes, event
   stream, channel meters, audit history) are byte-for-byte identical. *)

let faults_world ~(seed : string) ~(auths : int) : string * string =
  Scenario.run ~events:true ~entropy:("larch-faults-" ^ seed) @@ fun w ->
  (* storage faults ride along with transport faults: the log's state
     lives in a seeded faultable store, so every injected peer restart is
     a genuine kill (un-fsynced bytes drawn away per the disk profile)
     followed by snapshot + WAL recovery *)
  let disk, log = Scenario.store_log ~checkpoint_every:32 ~seed w.rand in
  (* clean enrollment and registrations, then inject faults *)
  let protos = Scenario.[ Fido2; Totp; Password ] in
  let client, login =
    Scenario.session ~rand:w.rand log "fault-user" ~presignatures:(4 * auths) protos
  in
  Client.Transport.set_injector client.Client.transport
    (Some (Larch_net.Fault.seeded ~seed Larch_net.Fault.stormy));
  let ok = ref 0 in
  for i = 1 to auths do
    List.iter
      (fun p ->
        Larch_util.Clock.advance 1.0;
        let label = Printf.sprintf "%s[%d]" (Scenario.proto_name p) i in
        match Scenario.attempt (fun () -> login p) with
        | Completed -> incr ok; Scenario.line w "%s ok" label
        | Transport_error e ->
            Scenario.line w "%s error %s attempts=%d" label
              (Client.Transport.failure_to_string e.Client.Transport.last)
              e.Client.Transport.attempts
        | Protocol_error m -> Scenario.line w "%s protocol-error %s" label m
        | Log_misbehaved m -> Scenario.line w "%s log-misbehaved %s" label m)
      protos
  done;
  (* calm the link again and audit what actually got recorded *)
  Client.Transport.set_injector client.Client.transport None;
  Client.resync client;
  let resp = Log_service.audit_with_head log ~client_id:"fault-user" ~token:"pw" in
  Scenario.line w "merkle head size=%d root=%s" resp.Log_service.sth.Larch_merkle.Merkle.Sth.size
    (Larch_util.Hex.encode resp.Log_service.sth.Larch_merkle.Merkle.Sth.root);
  let snap = Client.channel_snapshot client in
  Scenario.line w "wire up=%d down=%d msgs=%d rts=%d" snap.Larch_net.Channel.up
    snap.Larch_net.Channel.down snap.Larch_net.Channel.msgs snap.Larch_net.Channel.rts;
  List.iter (fun e -> Scenario.line w "%s" (Obs.Events.to_string e)) (Obs.Events.recent ());
  (* storage transcript: deterministic disk op counts (never latencies)
     plus the post-storm fsck verdict *)
  Scenario.line w "disk %s" (Scenario.disk_counts disk);
  let fr = Scenario.fsck log in
  Scenario.line w "%s" (Scenario.fsck_line ~gen:true log fr);
  let st = Client.Transport.stats client.Client.transport in
  Printf.sprintf
    "%d ok / %d failed (typed); transport: %d attempts, %d retries, %d timeouts, %d faults, %d replays; store: %d kills, fsck %s; %d events"
    !ok (3 * auths - !ok) st.Client.Transport.attempts st.Client.Transport.retries
    st.Client.Transport.timeouts st.Client.Transport.faults st.Client.Transport.replays
    (Larch_store.Disk.stats disk).Larch_store.Disk.crashes (Scenario.verdict fr)
    (List.length (Obs.Events.recent ()))

let faults seed auths =
  Printf.printf "seeded fault injection (seed=%s, stormy profile, %d auths per method)\n" seed auths;
  Scenario.twice
    ~reproduce:(Printf.sprintf "larch faults --seed %s -n %d" seed auths)
    ~show:(Printf.printf "  %s\n")
    (fun () -> faults_world ~seed ~auths)

(* --- swarm: concurrent fiber sessions over the faulty link ------------- *)

module Runtime = Larch_runtime.Runtime

(* One seeded world: [sessions] clients, each a fiber driving a full
   enroll → register → authenticate → audit session for its protocol
   (10% FIDO2, 20% TOTP, 70% password) over the 20 ms RTT link with a
   per-client seeded fault injector, all against one store-backed log
   behind the Log_async admission loop.  The transcript records every
   session's outcome in completion order — a pure function of the
   scheduler seed — plus aggregate transport/disk/admission/fsck
   state. *)
let swarm_world ~(seed : string) ~(sessions : int) ~(faulty : bool) : string * string =
  Scenario.run ~entropy:("larch-swarm-" ^ seed) @@ fun w ->
  let disk, log = Scenario.store_log ~checkpoint_every:64 ~objection_window:0.05 ~seed w.rand in
  let la = Log_async.create log in
  let ok = ref 0 and failed = ref 0 in
  let attempts = ref 0 and retries = ref 0 and tfaults = ref 0 and replays = ref 0 in
  (* storms, but rare crashes: a shared-log restart hits every in-flight
     session, so the stormy default would drown the swarm in collateral
     aborts instead of exercising interleaving *)
  let profile = { Larch_net.Fault.stormy with Larch_net.Fault.p_crash = 0.004 } in
  let t0 = Larch_util.Clock.now () in
  Runtime.run ~seed:("swarm-sched-" ^ seed) (fun () ->
      Log_async.start la;
      let session i () =
        let cid = Printf.sprintf "swarm-%03d" i in
        let proto = Scenario.(match i mod 10 with 0 -> Fido2 | 1 | 2 -> Totp | _ -> Password) in
        let client =
          Scenario.client ~net:Larch_net.Netsim.paper_default ~async:la ~password:("pw-" ^ cid)
            ~rand:w.rand log cid
        in
        let outcome =
          match
            Scenario.attempt (fun () ->
                (* clean enrollment; faults start with registration *)
                Client.enroll ~presignature_count:(if proto = Fido2 then 3 else 1) client;
                let rp = Relying_party.create ~name:("rp-" ^ cid) ~rand_bytes:w.rand () in
                if faulty then
                  Client.Transport.set_injector client.Client.transport
                    (Some (Larch_net.Fault.seeded ~seed:(seed ^ "/" ^ cid) profile));
                Scenario.register client rp proto ();
                (* staged top-up: the admission loop's idle pass activates
                   it once the objection window lapses *)
                if proto = Fido2 then Client.top_up_presignatures client ~count:2)
          with
          | Completed -> incr ok; "ok"
          | Transport_error e ->
              incr failed;
              Printf.sprintf "transport-error %s attempts=%d"
                (Client.Transport.failure_to_string e.Client.Transport.last)
                e.Client.Transport.attempts
          | Protocol_error m -> incr failed; "protocol-error " ^ m
          | Log_misbehaved m -> incr failed; "log-misbehaved " ^ m
          | exception Failure m -> incr failed; "failed " ^ m
        in
        (* calm the link again; a verified audit closes the session *)
        Client.Transport.set_injector client.Client.transport None;
        let audit =
          match Client.resync client; Client.audit_verified client with
          | Ok entries -> Printf.sprintf "audit ok (%d records)" (List.length entries)
          | Error m -> "audit FAILED " ^ m
          | exception _ -> "audit error"
        in
        let st = Client.Transport.stats client.Client.transport in
        attempts := !attempts + st.Client.Transport.attempts;
        retries := !retries + st.Client.Transport.retries;
        tfaults := !tfaults + st.Client.Transport.faults;
        replays := !replays + st.Client.Transport.replays;
        Scenario.line w "%s %-8s %s; %s; retries=%d" cid (Scenario.proto_name proto) outcome audit
          st.Client.Transport.retries
      in
      let fibers =
        List.init sessions (fun i ->
            Runtime.spawn ~name:(Printf.sprintf "session-%03d" i) (session i))
      in
      List.iter
        (fun p ->
          match Runtime.await p with
          | () -> ()
          | exception _ -> incr failed)
        fibers;
      Log_async.stop la);
  let elapsed = Larch_util.Clock.now () -. t0 in
  Scenario.line w "disk %s" (Scenario.disk_counts ~rot:false disk);
  let fr = Scenario.fsck log in
  Scenario.line w "%s" (Scenario.fsck_line log fr);
  Scenario.line w "%s virtual_elapsed=%.3fs" (Scenario.admission_line la) elapsed;
  Printf.sprintf
    "%d ok / %d failed; transport: %d attempts, %d retries, %d faults, %d replays; \
     admission: %d batches (%d reqs batched); %d disk kills, fsck %s; %.1fs virtual"
    !ok !failed !attempts !retries !tfaults !replays (Log_async.batches la)
    (Log_async.batched_requests la) (Larch_store.Disk.stats disk).Larch_store.Disk.crashes
    (Scenario.verdict fr) elapsed

let swarm seed sessions clean =
  let faulty = not clean in
  Printf.printf "swarm: %d concurrent sessions (seed=%s, %s link, 20ms RTT)\n" sessions seed
    (if faulty then "faulty" else "clean");
  Scenario.twice
    ~reproduce:
      (Printf.sprintf "larch swarm --seed %s -n %d%s" seed sessions
         (if clean then " --clean" else ""))
    ~show:(Printf.printf "  %s\n")
    (fun () -> swarm_world ~seed ~sessions ~faulty)

(* --- overload: bounded admission, shedding, brownout ------------------- *)

(* Each offered-load multiple runs twice from the same seed and must
   digest identically; the storm numbers then feed the acceptance
   checks: typed sheds appear under overload, goodput at 4x holds >= 70%
   of 1x, the brownout recovers, every audit verifies, fsck is clean. *)
let overload_run seed fast =
  Scenario.guard @@ fun () ->
  let mults = if fast then [ 1; 4 ] else [ 1; 2; 4 ] in
  Printf.printf "overload: seeded storms at %s offered load (seed=%s)\n"
    (String.concat "/" (List.map (fun m -> Printf.sprintf "%dx" m) mults))
    seed;
  let results =
    List.map
      (fun mult ->
        let w1 = Overload.run ~seed ~mult in
        let w2 = Overload.run ~seed ~mult in
        let same = w1.Overload.digest = w2.Overload.digest in
        Printf.printf "  %dx: %s\n" mult w1.Overload.summary;
        Printf.printf "      digest %s (run 2 %s)\n"
          (String.sub w1.Overload.digest 0 16)
          (if same then "identical" else "DIFFERS");
        (w1, same))
      mults
  in
  print_endline "  goodput vs offered load:";
  List.iter
    (fun (w, _) ->
      Printf.printf "    %dx  offered %4d  completed %4d  shed %4d  goodput %6.1f/s\n"
        w.Overload.mult w.Overload.offered w.Overload.completed
        w.Overload.admission.Log_async.shed_total w.Overload.goodput)
    results;
  let base = fst (List.hd results) in
  let storm = fst (List.nth results (List.length results - 1)) in
  let deterministic = List.for_all snd results in
  let invariants_ok =
    List.for_all
      (fun (w, _) ->
        w.Overload.fsck_clean && w.Overload.audits_failed = 0 && w.Overload.brownout_recovered)
      results
  in
  (* typed sheds = admission decisions observed by client transports as
     Overloaded attempts; whether a given client also exhausts all its
     retries (overloaded > 0) is a seed-dependent detail. *)
  let shed_ok =
    storm.Overload.admission.Log_async.shed_total > 0 && storm.Overload.shed_attempts > 0
  in
  let goodput_ok = storm.Overload.goodput >= 0.7 *. base.Overload.goodput in
  let check name ok = Printf.printf "  %s %s\n" (if ok then "ok  " else "FAIL") name in
  check "deterministic: same seed, same transcript" deterministic;
  check
    (Printf.sprintf "typed sheds under %dx overload (%d shed, %d typed attempts, %d gave up)"
       storm.Overload.mult storm.Overload.admission.Log_async.shed_total
       storm.Overload.shed_attempts storm.Overload.overloaded)
    shed_ok;
  check
    (Printf.sprintf "goodput holds: %.1f/s at %dx >= 70%% of %.1f/s at 1x"
       storm.Overload.goodput storm.Overload.mult base.Overload.goodput)
    goodput_ok;
  check "post-storm: brownout recovered, audits verified, fsck clean" invariants_ok;
  if deterministic && invariants_ok && shed_ok && goodput_ok then begin
    Printf.printf "  reproduce with: larch overload --seed %s\n" seed;
    0
  end
  else 1

(* --- storage: fsck and the crash-point recovery sweep ------------------ *)

module Disk = Larch_store.Disk
module Store = Larch_store.Store

(* A deterministic store-backed world: all three methods exercised, a
   backup stored and old records pruned — so the WAL crosses every op
   family fsck knows how to check. *)
let store_workload (w : Scenario.t) ~(seed : string) ~(auths : int) ~(checkpoint_every : int) :
    Log_service.t * Disk.t =
  let disk, log = Scenario.store_log ~checkpoint_every ~seed w.rand in
  let protos = Scenario.[ Fido2; Totp; Password ] in
  let client, login =
    Scenario.session ~rand:w.rand log "store-user" ~presignatures:(2 * auths) protos
  in
  for _i = 1 to auths do
    List.iter (fun p -> Larch_util.Clock.advance 30.; login p) protos
  done;
  ignore (Backup.store client);
  ignore
    (Log_service.prune_records log ~client_id:"store-user" ~token:"pw"
       ~older_than:(Larch_util.Clock.now () -. 45.));
  (log, disk)

let store_entropy seed = "larch-store-" ^ seed
let dir = Scenario.store_dir

let state_digest (clients : Log_state.clients) : string =
  Scenario.digest (Log_codec.encode_clients clients)

let print_fsck (fr : Log_persist.fsck) =
  let v = fr.Log_persist.structural in
  Printf.printf "  snapshots: %d valid%s\n" (List.length v.Store.snapshots_ok)
    (match v.Store.snapshots_bad with
    | [] -> ""
    | l -> Printf.sprintf ", %d BAD (gens %s)" (List.length l)
             (String.concat "," (List.map string_of_int l)));
  List.iter (fun (g, n) -> Printf.printf "  wal.%06d: %d records, checksums ok\n" g n) v.Store.wal_ok;
  List.iter (fun (g, off) -> Printf.printf "  wal.%06d: TORN at byte %d\n" g off) v.Store.wal_torn;
  Printf.printf "  semantic: %d WAL ops replayed over %d clients\n" fr.Log_persist.wal_ops
    fr.Log_persist.clients;
  (match fr.Log_persist.issues with
  | [] -> print_endline "  invariants: merkle trees, presig cursors, replay-match all hold"
  | l -> List.iter (fun i -> Printf.printf "  ISSUE: %s\n" i) l)

let fsck_run seed auths =
  Printf.printf "store fsck over a seeded workload (seed=%s, %d auths per method)\n" seed auths;
  let (log, disk), _ =
    Scenario.run ~entropy:(store_entropy seed) (store_workload ~seed ~auths ~checkpoint_every:8)
  in
  let fr = Option.get (Log_service.fsck log) in
  print_fsck fr;
  let clean = Log_persist.fsck_clean fr in
  (* now rot one durable byte in a copy of the disk and show detection *)
  let img = Disk.dump disk in
  let wal_pick d =
    List.fold_left
      (fun best f -> match best with
        | Some b when Disk.size d ~file:b >= Disk.size d ~file:f -> best
        | _ -> if Disk.size d ~file:f > 0 then Some f else best)
      None
      (List.filter (fun f -> String.length f > 8 && String.sub f 0 8 = dir ^ "/wal.") (Disk.files d))
  in
  let wal_detected =
    match wal_pick (Disk.restore img) with
    | None -> false
    | Some file ->
        let d = Disk.restore img in
        Disk.corrupt d ~file ~pos:(Disk.size d ~file / 2);
        let v = Store.verify_disk d ~dir in
        Printf.printf "  bit rot injected mid-%s: %s\n" file
          (match v.Store.wal_torn with
          | (g, off) :: _ ->
              Printf.sprintf "checksum scan stops wal.%06d at byte %d — detected" g off
          | [] -> "NOT DETECTED");
        v.Store.wal_torn <> []
  in
  (* rot the newest snapshot: recovery must fall back a generation and
     replay the previous WAL to the byte-identical state *)
  let snap_ok =
    match List.rev fr.Log_persist.structural.Store.snapshots_ok with
    | [] ->
        print_endline "  (no snapshot yet at this workload size; skipping fallback check)";
        true
    | g :: _ ->
        let d = Disk.restore img in
        let file = Printf.sprintf "%s/snap.%06d" dir g in
        Disk.corrupt d ~file ~pos:(Disk.size d ~file / 2);
        let store' = Store.open_ ~disk:d ~dir () in
        let skipped = (Store.recovered store').Store.snapshots_skipped in
        let log' =
          Log_service.create ~store:store' ~rand_bytes:(Larch_hash.Drbg.of_seed "larch-fsck-recheck") ()
        in
        let same = state_digest log'.Log_service.clients = state_digest log.Log_service.clients in
        Printf.printf
          "  bit rot injected in snap.%06d: recovery skipped %d snapshot(s), replayed prior \
           generation — state %s\n"
          g skipped
          (if same then "byte-identical" else "DIVERGED");
        skipped >= 1 && same
  in
  if clean && wal_detected && snap_ok then begin
    print_endline "  fsck: clean store verifies; every injected fault detected or recovered";
    0
  end
  else begin
    print_endline "  fsck: FAILED (see above)";
    1
  end

(* Kill the log at a WAL byte offset (record boundary, or mid-frame for a
   torn tail), recover from the disk image, fsck, and digest the replayed
   state. *)
let recover_world ~(seed : string) ~(auths : int) : (int * int * int * bool) * string =
  Scenario.run ~entropy:(store_entropy seed) @@ fun w ->
  (* one generation for the whole run, so every record boundary in the
     history is a sweepable kill point *)
  let log, disk = store_workload w ~seed ~auths ~checkpoint_every:100_000 in
  let live = state_digest log.Log_service.clients in
  let img = Disk.dump disk in
  let wal = Store.wal_file dir (Scenario.generation log) in
  let entries, valid_len, _ = Larch_store.Wal.scan disk ~file:wal in
  let boundaries =
    List.rev
      (List.fold_left
         (fun acc e -> (List.hd acc + Larch_store.Wal.frame_overhead + String.length e) :: acc)
         [ 0 ] entries)
  in
  let clean = ref 0 and dirty = ref 0 in
  let kill offset =
    let d = Disk.restore img in
    Disk.truncate d ~file:wal offset;
    let store' = Store.open_ ~disk:d ~dir () in
    let r = Store.recovered store' in
    let log' =
      Log_service.create ~store:store' ~rand_bytes:(Larch_hash.Drbg.of_seed "larch-recover-replay") ()
    in
    let fr = Scenario.fsck log' in
    let ok = Log_persist.fsck_clean fr in
    if ok then incr clean else incr dirty;
    Scenario.line w "kill@%06d records=%d torn=%b clients=%d fsck=%s state=%s" offset
      (List.length r.Store.tail) r.Store.torn
      (Hashtbl.length log'.Log_service.clients)
      (if ok then "clean" else String.concat "; " fr.Log_persist.issues)
      (String.sub (state_digest log'.Log_service.clients) 0 16);
    state_digest log'.Log_service.clients
  in
  List.iter
    (fun off ->
      ignore (kill off);
      (* and a mid-frame kill: the next record half-written *)
      if off + 4 <= valid_len && off <> valid_len then ignore (kill (off + 4)))
    boundaries;
  let final = kill valid_len in
  Scenario.line w "live=%s final=%s" live final;
  (List.length boundaries, !clean, !dirty, final = live)

let recover_run seed auths =
  Printf.printf "crash-point recovery sweep (seed=%s, %d auths per method)\n" seed auths;
  Scenario.twice
    ~reproduce:(Printf.sprintf "larch recover --seed %s -n %d" seed auths)
    ~ok:(fun (_, _, dirty, replay_ok) -> dirty = 0 && replay_ok)
    ~show:(fun (points, clean, dirty, replay_ok) ->
      Printf.printf
        "  %d record boundaries (+ mid-frame variants): %d recoveries fsck-clean, %d dirty\n"
        points clean dirty;
      Printf.printf "  full-WAL replay %s the live state byte for byte\n"
        (if replay_ok then "matches" else "DOES NOT match"))
    (fun () -> recover_world ~seed ~auths)

(* --- the transparency layer: verified audits and split-view detection -- *)

module Merkle = Larch_merkle.Merkle

(* A seeded world narrating the Merkle transparency layer end to end:
   incremental verified audits with O(log n) proofs, a rollback caught by
   the client, and a forked multilog replica localized by pairwise
   consistency.  Returns (transcript, digest, all-checks-passed). *)
let audit_world ~(seed : string) ~(auths : int) : (string * bool) * string =
  Scenario.run ~entropy:("larch-audit-" ^ seed) @@ fun w ->
  let rand = w.rand in
  let line fmt = Scenario.line w fmt in
  let all_ok = ref true in
  let expect cond msg = if not cond then begin all_ok := false; line "  UNEXPECTED: %s" msg end in
  (* phase 1: one log, incremental verified audits *)
  line "single log: incremental verified audits (%d authentications)" auths;
  let log = Log_service.create ~rand_bytes:rand () in
  let client = Scenario.client ~rand log "audit-user" in
  Client.enroll ~presignature_count:1 client;
  ignore (Client.register_password client ~rp_name:"rp.example");
  for i = 1 to auths do
    Larch_util.Clock.advance 60.;
    ignore (Client.authenticate_password client ~rp_name:"rp.example");
    let since = match client.Client.last_sth with Some s -> s.Merkle.Sth.size | None -> 0 in
    let resp = Log_service.audit_with_head ~since log ~client_id:"audit-user" ~token:"pw" in
    let proof_hashes =
      List.length resp.Log_service.consistency
      + List.fold_left (fun a p -> a + List.length p) 0 resp.Log_service.proofs
    in
    (match Client.audit_verified client with
    | Ok entries ->
        line "  auth %d: tree size=%d root=%s… delta=%d proof hashes=%d audit ok (%d entries)" i
          resp.Log_service.sth.Merkle.Sth.size
          (String.sub (Larch_util.Hex.encode resp.Log_service.sth.Merkle.Sth.root) 0 12)
          (List.length resp.Log_service.records) proof_hashes (List.length entries);
        expect (List.length entries = i) "verified history shorter than the auth count"
    | Error e ->
        all_ok := false;
        line "  auth %d: audit FAILED: %s" i e)
  done;
  (* phase 2: the log rolls back one record and re-derives its tree; the
     client's next verified audit must refuse *)
  line "rollback: the log drops the newest record and re-derives its tree";
  let cs = Log_service.get_client log "audit-user" in
  (match cs.Log_service.records with
  | _ :: rest -> cs.Log_service.records <- rest
  | [] -> ());
  Log_state.rebuild_derived cs;
  (match Client.audit_verified client with
  | Error e -> line "  detected: %s" e
  | Ok _ ->
      all_ok := false;
      line "  MISSED: rollback not detected");
  (* phase 3: three replicas, one forks; pairwise consistency localizes it *)
  line "multilog: 3 replicas, threshold 3";
  let ml = Multilog.create ~n:3 ~threshold:3 ~rand_bytes:rand () in
  let mc = Multilog.enroll ml ~client_id:"audit-user" ~account_password:"pw" in
  ignore (Multilog.register ml mc ~rp_name:"rp.example");
  for _ = 1 to auths do
    Larch_util.Clock.advance 60.;
    ignore (Multilog.authenticate ml mc ~rp_name:"rp.example" ~now:(Larch_util.Clock.now ()))
  done;
  let show_heads (sv : Multilog.split_view) =
    List.iter
      (fun (i, (h : Merkle.Sth.t)) ->
        line "  log%d: size=%d root=%s…" i h.Merkle.Sth.size (String.sub (Larch_util.Hex.encode h.Merkle.Sth.root) 0 12))
      sv.Multilog.heads
  in
  let sv = Multilog.check_split_view ml mc in
  show_heads sv;
  line "  %d pairs checked, %d inconsistent" sv.Multilog.checked_pairs
    (List.length sv.Multilog.bad_pairs);
  expect (sv.Multilog.bad_pairs = []) "honest replicas flagged as inconsistent";
  line "fork: log2 rewrites its copy of the history";
  let cs2 = Log_service.get_client ml.Multilog.logs.(2) "audit-user" in
  cs2.Log_service.records <-
    List.map (fun (r : Record.t) -> { r with Record.ip = "203.0.113.66" }) cs2.Log_service.records;
  Log_state.rebuild_derived cs2;
  let sv' = Multilog.check_split_view ml mc in
  show_heads sv';
  List.iter (fun (a, b) -> line "  inconsistent pair: log%d / log%d" a b) sv'.Multilog.bad_pairs;
  line "  suspects: %s"
    (match sv'.Multilog.suspects with
    | [] -> "none"
    | l -> String.concat " " (List.map (Printf.sprintf "log%d") l));
  expect (sv'.Multilog.suspects = [ 2 ]) "fork not localized to log2";
  (Buffer.contents w.out, !all_ok)

let audit_cli seed auths =
  Printf.printf "merkle transparency walk-through (seed=%s)\n" seed;
  Scenario.twice
    ~reproduce:(Printf.sprintf "larch audit --seed %s -n %d" seed auths)
    ~ok:snd ~show:(fun (t, _) -> print_string t)
    (fun () -> audit_world ~seed ~auths)

(* --- the capacity report and the metric exporters ---------------------- *)

let report_run seed auths =
  Scenario.twice
    ~reproduce:(Printf.sprintf "larch report --seed %s -n %d" seed auths)
    ~show:(fun r -> print_string r.Report.text)
    (fun () ->
      let r = Report.run ~auths ~seed () in
      (r, r.Report.digest))

let sizes () =
  print_endline "byte-level protocol constants:";
  Printf.printf "  log presignature            %d B\n" Two_party_ecdsa.log_presig_bytes;
  Printf.printf "  FIDO2 auth record           %d B (ts 8 + nonce 12 + ct 32 + sig 64)\n" (8 + 12 + 32 + 64);
  Printf.printf "  TOTP auth record            %d B (ts 8 + nonce 12 + ct 16 + sig 64)\n" (8 + 12 + 16 + 64);
  Printf.printf "  password auth record        %d B (ts 8 + ElGamal 130)\n" (8 + 130);
  Printf.printf "  ECDSA signature             64 B;  point: 65 B / 33 B compressed\n";
  Printf.printf "  online signing messages     %d B per signature\n" (64 + 64 + 32 + 32 + 32 + 32 + 80 + 80);
  Printf.printf "  2P-Schnorr total            %d B per signature\n" Schnorr_signing.wire_bytes;
  0

let circuits () =
  print_endline "statement-circuit statistics:";
  let c = Lazy.force Larch_circuit.Larch_statements.fido2_circuit in
  Printf.printf "  FIDO2 statement: %d inputs, %d gates (%d AND), %d outputs\n"
    c.Larch_circuit.Circuit.n_inputs
    (Larch_circuit.Circuit.n_gates c)
    c.Larch_circuit.Circuit.n_and
    (Larch_circuit.Circuit.n_outputs c);
  List.iter
    (fun n ->
      let pub =
        Larch_circuit.Larch_statements.
          { cm = String.make 32 'c'; enc_nonce = String.make 12 'n'; time_counter = 1L }
      in
      let tc = Larch_circuit.Larch_statements.totp_circuit ~n_rps:n pub in
      Printf.printf "  TOTP 2PC (n=%-3d): %d inputs, %d gates (%d AND)\n" n
        tc.Larch_circuit.Circuit.n_inputs
        (Larch_circuit.Circuit.n_gates tc)
        tc.Larch_circuit.Circuit.n_and)
    [ 1; 20; 100 ];
  0

open Cmdliner

let scenario_arg =
  Arg.(required & pos 0 (some (enum [
    ("fido2", `Fido2); ("totp", `Totp); ("password", `Password);
    ("multilog", `Multilog); ("compromise", `Compromise); ("recovery", `Recovery) ])) None
    & info [] ~docv:"SCENARIO")

let n_arg =
  Arg.(value & opt int 8 & info [ "n" ] ~doc:"Number of registered relying parties.")

let run_scenario scenario n =
  match scenario with
  | `Fido2 -> demo_fido2 ()
  | `Totp -> demo_totp (max 1 n)
  | `Password -> demo_password (max 1 n)
  | `Multilog -> demo_multilog ()
  | `Compromise -> demo_compromise ()
  | `Recovery -> demo_recovery ()

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Run a narrated end-to-end scenario")
    Term.(const run_scenario $ scenario_arg $ n_arg)

let metrics_run scenario n format =
  Obs.Runtime.enable_all ();
  Obs.Trace.reset ();
  Obs.Events.clear ();
  Obs.Metrics.reset Obs.Metrics.default;
  let rc = run_scenario scenario n in
  print_newline ();
  (match format with
  | `Prom ->
      print_endline "-- prometheus exposition --------------------------------";
      print_string (Obs.Export.prometheus Obs.Metrics.default)
  | `Json -> print_endline (Obs.Export.json Obs.Metrics.default));
  Obs.Runtime.disable_all ();
  rc

(* Run a demo with tracing, metrics, and the event stream enabled, then
   print all three views (and optionally a Chrome trace_event file). *)
let trace_cmd =
  let json =
    Arg.(value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the span tree as Chrome trace_event JSON (load in \
                chrome://tracing or Perfetto).")
  in
  let run scenario n json =
    Obs.Runtime.enable_all ();
    Obs.Trace.reset ();
    Obs.Events.clear ();
    let rc = run_scenario scenario n in
    print_newline ();
    print_endline "-- spans ------------------------------------------------";
    print_string (Obs.Trace.report ());
    print_newline ();
    print_endline "-- metrics ----------------------------------------------";
    print_string (Obs.Metrics.report Obs.Metrics.default);
    print_newline ();
    print_endline "-- log-service events (no relying-party names, ever) ----";
    List.iter (fun e -> print_endline ("  " ^ Obs.Events.to_string e)) (Obs.Events.recent ());
    let rc =
      match json with
      | None -> rc
      | Some file -> (
          try
            Obs.Trace.write_chrome_json file;
            Printf.printf "\nchrome trace written to %s\n" file;
            rc
          with Sys_error msg ->
            Printf.eprintf "larch: cannot write trace: %s\n" msg;
            1)
    in
    Obs.Runtime.disable_all ();
    rc
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a demo under the observability layer")
    Term.(const run $ scenario_arg $ n_arg $ json)

let faults_cmd =
  let seed =
    Arg.(value & opt string "42" & info [ "seed" ] ~docv:"SEED"
      ~doc:"Fault-injection seed; the same seed replays the same faults, retries, and records.")
  in
  let auths =
    Arg.(value & opt int 4 & info [ "n" ] ~doc:"Authentications per method under fault injection.")
  in
  Cmd.v
    (Cmd.info "faults" ~doc:"Run a seeded faulty-transport world twice and compare transcripts")
    Term.(const faults $ seed $ auths)

let swarm_cmd =
  let seed =
    Arg.(value & opt string "42" & info [ "seed" ] ~docv:"SEED"
      ~doc:"Scheduler seed; the same seed replays the same interleaving, faults, and \
            transcript byte for byte.")
  in
  let sessions =
    Arg.(value & opt int 16 & info [ "n" ] ~doc:"Concurrent sessions (fibers).")
  in
  let clean =
    Arg.(value & flag & info [ "clean" ]
      ~doc:"Disable per-session fault injectors (keep the 20ms RTT link).")
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:"Run N concurrent mixed-protocol session fibers over the simulated link \
             against one admission-loop log — twice, digest-compared")
    Term.(const swarm $ seed $ sessions $ clean)

let overload_cmd =
  let seed =
    Arg.(value & opt string "42" & info [ "seed" ] ~docv:"SEED"
      ~doc:"Scenario seed; the same seed replays every shed, retry, and brownout \
            transition byte for byte.")
  in
  let fast =
    Arg.(value & flag & info [ "fast" ]
      ~doc:"Run only the 1x and 4x worlds (the smoke-test configuration).")
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:"Drive the admission-controlled log at 1x/2x/4x its capacity: bounded \
             admission, deadline shedding, per-client rate limits, retry budgets, and \
             brownout degradation — each world run twice, digest-compared, with goodput \
             and invariant checks")
    Term.(const overload_run $ seed $ fast)

let store_seed_arg =
  Arg.(value & opt string "42" & info [ "seed" ] ~docv:"SEED"
    ~doc:"Workload seed; the same seed replays the same WAL and the same sweep.")

let store_auths_arg =
  Arg.(value & opt int 2 & info [ "n" ] ~doc:"Authentications per method in the seeded workload.")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Verify a store: frame checksums, per-client Merkle trees, presignature cursor \
             monotonicity, live-vs-replayed state match; then inject bit rot and show \
             detection and snapshot-fallback recovery")
    Term.(const fsck_run $ store_seed_arg $ store_auths_arg)

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Deterministic crash-point sweep: kill the log at every WAL record boundary \
             (and mid-frame), recover, fsck, and digest the replayed state")
    Term.(const recover_run $ store_seed_arg $ store_auths_arg)

let audit_cmd =
  let seed =
    Arg.(value & opt string "42" & info [ "seed" ] ~docv:"SEED"
      ~doc:"Workload seed; the same seed reproduces the same transcript byte for byte.")
  in
  let auths =
    Arg.(value & opt int 3 & info [ "n" ] ~doc:"Authentications before each tampering phase.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Walk the Merkle transparency layer: incremental verified audits with O(log n) \
             proofs, a rollback caught by the client, and a forked replica localized by \
             pairwise split-view detection — run twice, digest-compared")
    Term.(const audit_cli $ seed $ auths)

let report_cmd =
  let seed =
    Arg.(value & opt string "42" & info [ "seed" ] ~docv:"SEED"
      ~doc:"Workload seed; the same seed reproduces the same report byte for byte.")
  in
  let auths =
    Arg.(value & opt int 4 & info [ "n" ] ~doc:"Authentications per method in the calm phase.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run the seeded mixed enroll/auth/audit capacity workload twice and print the \
             reproducible report: per-protocol p50/p99/p99.9 latency, presignature \
             depletion, storm-segment failure totals, WAL growth vs checkpoint cadence")
    Term.(const report_run $ seed $ auths)

let metrics_cmd =
  let scenario =
    Arg.(value & pos 0 (enum [
      ("fido2", `Fido2); ("totp", `Totp); ("password", `Password);
      ("multilog", `Multilog); ("compromise", `Compromise); ("recovery", `Recovery) ]) `Fido2
      & info [] ~docv:"SCENARIO")
  in
  let format =
    Arg.(value & opt (enum [ ("prom", `Prom); ("json", `Json) ]) `Prom
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Exposition format: Prometheus text ($(b,prom)) or canonical JSON ($(b,json)).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a demo with instrumentation on, then print the metrics registry in \
             Prometheus or canonical JSON exposition (no relying-party identifiers, ever)")
    Term.(const metrics_run $ scenario $ n_arg $ format)

let sizes_cmd = Cmd.v (Cmd.info "sizes" ~doc:"Print protocol byte constants") Term.(const sizes $ const ())
let circuits_cmd = Cmd.v (Cmd.info "circuits" ~doc:"Print statement-circuit statistics") Term.(const circuits $ const ())

let () =
  let doc = "larch: accountable authentication with privacy protection" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "larch" ~doc)
          [ demo_cmd; trace_cmd; faults_cmd; swarm_cmd; overload_cmd; fsck_cmd; recover_cmd;
            audit_cmd; report_cmd; metrics_cmd; sizes_cmd; circuits_cmd ]))

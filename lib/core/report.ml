(* The capacity report (ROADMAP item 4): one seeded, mixed
   enroll/auth/audit workload over the store-backed, fault-injectable
   world, rendered as a byte-for-byte reproducible text report.

   Everything the report prints derives from the seed: randomness is one
   HMAC-DRBG, time is the simulated clock (transport legs advance it by
   rtt/2 + bytes/bandwidth; storage is instant), storage faults come from
   the seeded disk, transport faults from the seeded injector.  Latencies
   are simulated-clock deltas written with [Metrics.force_observe] into a
   private registry — the process-global [Metrics.default] and the
   tracing toggle stay untouched, so span histograms (fed by the real
   monotonic clock) can never leak wall time into the digest.

   Sections: per-protocol latency (p50/p99/p99.9) on a calm link, the
   presignature depletion curve, a storm segment (typed failure counts,
   retry/timeout totals, flight-recorder incidents), and the WAL
   growth vs checkpoint cadence sweep.  The digest is the hex sha256 of
   the rendered text; `larch report` runs the whole thing twice and
   insists the digests match. *)

module Obs = Larch_obs
module Metrics = Obs.Metrics
module Disk = Larch_store.Disk
module Store = Larch_store.Store

type result = { text : string; digest : string }

let hex (s : string) : string =
  String.concat ""
    (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

let ms (t0 : float) (t1 : float) : float = (t1 -. t0) *. 1000.

(* One latency row: count, p50, p99, p99.9, max — all from the private
   registry's high-resolution histograms. *)
let latency_row (buf : Buffer.t) (reg : Metrics.t) ~(label : string) ~(metric : string) : unit =
  let h = Metrics.histogram reg metric in
  if Metrics.histogram_count h > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  %-10s n=%-4d p50=%sms p99=%sms p99.9=%sms max=%sms\n" label
         (Metrics.histogram_count h)
         (Obs.Export.fstr (Metrics.percentile h 0.50))
         (Obs.Export.fstr (Metrics.percentile h 0.99))
         (Obs.Export.fstr (Metrics.percentile h 0.999))
         (Obs.Export.fstr (Metrics.histogram_max h)))

(* Checkpoint-cadence sweep: the same seeded password-only workload per
   cadence; what varies is how often the store folds the WAL into a
   snapshot.  Password auths keep the sweep cheap (no 137-rep ZKBoo). *)
let wal_sweep (buf : Buffer.t) ~(seed : string) ~(auths : int) : unit =
  Buffer.add_string buf "wal growth vs checkpoint cadence:\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-10s %6s %8s %8s %10s %10s\n" "cadence" "gen" "appends" "fsyncs"
       "bytes" "live_wal");
  List.iter
    (fun cadence ->
      let drbg = Larch_hash.Drbg.create ~entropy:(Printf.sprintf "larch-report-wal-%s-%d" seed cadence) in
      let rand n = Larch_hash.Drbg.generate drbg n in
      let disk = Disk.create ~seed () in
      let store = Store.open_ ~disk ~dir:"log" () in
      let log = Log_service.create ~checkpoint_every:cadence ~store ~rand_bytes:rand () in
      let client =
        Client.create ~client_id:"report-user" ~account_password:"pw" ~log ~rand_bytes:rand ()
      in
      Client.enroll ~presignature_count:2 client;
      let site_pw = Client.register_password client ~rp_name:"rp.example" in
      ignore site_pw;
      for _ = 1 to auths do
        Larch_util.Clock.advance 30.;
        ignore (Client.authenticate_password client ~rp_name:"rp.example")
      done;
      let gen = Store.generation store in
      let live = Disk.size disk ~file:(Store.wal_file "log" gen) in
      let ds = Disk.stats disk in
      Buffer.add_string buf
        (Printf.sprintf "  %-10d %6d %8d %8d %10d %10d\n" cadence gen ds.Disk.appends
           ds.Disk.fsyncs ds.Disk.bytes_written live))
    [ 4; 16; 64 ]

let run ?(auths = 6) ~(seed : string) () : result =
  Larch_util.Clock.set 1_700_000_000.;
  Obs.Runtime.set_time_source (Some Larch_util.Clock.now);
  Obs.Runtime.set_events true;
  Obs.Events.clear ();
  Obs.Flight.clear Obs.Flight.default;
  let incidents_before = Obs.Flight.incident_count Obs.Flight.default in
  let reg = Metrics.create () in
  let obs name v = Metrics.force_observe (Metrics.histogram reg name) v in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "larch capacity report (seed=%s, %d auths per method)\n" seed auths);

  (* --- the seeded world ------------------------------------------------ *)
  let drbg = Larch_hash.Drbg.create ~entropy:("larch-report-" ^ seed) in
  let rand n = Larch_hash.Drbg.generate drbg n in
  let disk = Disk.create ~seed () in
  let store = Store.open_ ~disk ~dir:"log" () in
  let log = Log_service.create ~checkpoint_every:16 ~store ~rand_bytes:rand () in
  let client =
    Client.create ~net:Larch_net.Netsim.paper_default ~client_id:"report-user"
      ~account_password:"pw" ~log ~rand_bytes:rand ()
  in
  (* calm injector: no faults, but every exchange pays simulated wire time
     (rtt/2 per leg + bytes/bandwidth) — that is where latency comes from *)
  Client.Transport.set_injector client.Client.transport
    (Some (Larch_net.Fault.seeded ~seed Larch_net.Fault.calm));
  let presig_total = (2 * auths) + 2 in
  let t0 = Larch_util.Clock.now () in
  Client.enroll ~presignature_count:presig_total client;
  obs "enroll.ms" (ms t0 (Larch_util.Clock.now ()));
  let rp = Relying_party.create ~name:"rp.example" ~rand_bytes:rand () in
  let pk = Client.register_fido2 client ~rp_name:"rp.example" in
  Relying_party.fido2_register rp ~username:"report-user" ~pk;
  let totp_key = Relying_party.totp_register rp ~username:"report-user" in
  Client.register_totp client ~rp_name:"rp.example" ~totp_key;
  let site_pw = Client.register_password client ~rp_name:"rp.example" in
  Relying_party.password_set rp ~username:"report-user" ~password:site_pw;

  (* --- calm-link latency + presig depletion ---------------------------- *)
  let depletion = ref [ (0, Log_service.presignatures_remaining log ~client_id:"report-user") ] in
  let timed metric f =
    let t0 = Larch_util.Clock.now () in
    let r = f () in
    obs metric (ms t0 (Larch_util.Clock.now ()));
    r
  in
  for i = 1 to auths do
    Larch_util.Clock.advance 60.;
    timed "auth.fido2.ms" (fun () ->
        let challenge = Relying_party.fido2_challenge rp ~username:"report-user" in
        let assertion = Client.authenticate_fido2 client ~rp_name:"rp.example" ~challenge in
        if not (Relying_party.fido2_login rp ~username:"report-user" assertion) then
          failwith "relying party rejected");
    depletion := (i, Log_service.presignatures_remaining log ~client_id:"report-user") :: !depletion;
    Larch_util.Clock.advance 60.;
    timed "auth.totp.ms" (fun () ->
        ignore
          (Client.authenticate_totp client ~rp_name:"rp.example"
             ~time:(Larch_util.Clock.now ())));
    Larch_util.Clock.advance 60.;
    timed "auth.password.ms" (fun () ->
        let pw = Client.authenticate_password client ~rp_name:"rp.example" in
        if not (Relying_party.password_login rp ~username:"report-user" ~password:pw) then
          failwith "relying party rejected");
    if i mod 3 = 0 then
      timed "audit.ms" (fun () ->
          ignore (Log_service.audit log ~client_id:"report-user" ~token:"pw"));
    Obs.Flight.record Obs.Flight.default
  done;
  Buffer.add_string buf "latency (calm link, paper-default netsim: 20ms rtt, 100 Mbit/s):\n";
  latency_row buf reg ~label:"fido2" ~metric:"auth.fido2.ms";
  latency_row buf reg ~label:"totp" ~metric:"auth.totp.ms";
  latency_row buf reg ~label:"password" ~metric:"auth.password.ms";
  latency_row buf reg ~label:"audit" ~metric:"audit.ms";
  latency_row buf reg ~label:"enroll" ~metric:"enroll.ms";
  Buffer.add_string buf
    (Printf.sprintf "presignature depletion (start=%d, batch activates after objection window):\n"
       presig_total);
  List.iter
    (fun (i, remaining) ->
      Buffer.add_string buf (Printf.sprintf "  after auth %-3d remaining=%d\n" i remaining))
    (List.rev !depletion);

  (* --- storm segment --------------------------------------------------- *)
  Client.Transport.set_injector client.Client.transport
    (Some (Larch_net.Fault.seeded ~seed Larch_net.Fault.stormy));
  let ok = ref 0 and failed = ref 0 in
  let attempt f =
    Larch_util.Clock.advance 60.;
    match f () with
    | () -> incr ok
    | exception Client.Transport.Error _ -> incr failed
    | exception Types.Protocol_error _ -> incr failed
    | exception Client.Log_misbehaved _ -> incr failed
  in
  let storm_rounds = max 1 (auths / 2) in
  for _ = 1 to storm_rounds do
    attempt (fun () ->
        let challenge = Relying_party.fido2_challenge rp ~username:"report-user" in
        ignore (Client.authenticate_fido2 client ~rp_name:"rp.example" ~challenge));
    attempt (fun () ->
        ignore
          (Client.authenticate_totp client ~rp_name:"rp.example"
             ~time:(Larch_util.Clock.now ())));
    attempt (fun () -> ignore (Client.authenticate_password client ~rp_name:"rp.example"))
  done;
  Client.Transport.set_injector client.Client.transport None;
  Client.resync client;
  let st = Client.Transport.stats client.Client.transport in
  let ds = Disk.stats disk in
  let incidents = Obs.Flight.incident_count Obs.Flight.default - incidents_before in
  Buffer.add_string buf
    (Printf.sprintf
       "storm segment (stormy profile, %d rounds): %d ok / %d failed (typed)\n" storm_rounds !ok
       !failed);
  Buffer.add_string buf
    (Printf.sprintf
       "  transport: attempts=%d retries=%d timeouts=%d faults=%d replays=%d\n"
       st.Client.Transport.attempts st.Client.Transport.retries st.Client.Transport.timeouts
       st.Client.Transport.faults st.Client.Transport.replays);
  Buffer.add_string buf
    (Printf.sprintf "  disk: appends=%d fsyncs=%d bytes=%d crashes=%d torn=%d rotted=%d\n"
       ds.Disk.appends ds.Disk.fsyncs ds.Disk.bytes_written ds.Disk.crashes ds.Disk.torn
       ds.Disk.rotted);
  Buffer.add_string buf
    (Printf.sprintf "  flight recorder: %d incident dump(s)\n" incidents);
  let audit_resp = Log_service.audit_with_head log ~client_id:"report-user" ~token:"pw" in
  Buffer.add_string buf
    (Printf.sprintf "  merkle head size=%d root=%s\n"
       audit_resp.Log_service.sth.Larch_merkle.Merkle.Sth.size
       (hex audit_resp.Log_service.sth.Larch_merkle.Merkle.Sth.root));
  Buffer.add_string buf
    (Printf.sprintf "  events emitted=%d\n" (List.length (Obs.Events.recent ())));

  (* --- WAL growth vs checkpoint cadence -------------------------------- *)
  wal_sweep buf ~seed ~auths:(4 * auths);

  Obs.Runtime.set_events false;
  Obs.Runtime.set_time_source None;
  Larch_util.Clock.use_real_time ();
  let text = Buffer.contents buf in
  { text; digest = hex (Larch_hash.Sha256.digest text) }

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
let wal_sweep (w : Scenario.t) ~(seed : string) ~(auths : int) : unit =
  Scenario.line w "wal growth vs checkpoint cadence:";
  Scenario.line w "  %-10s %6s %8s %8s %10s %10s" "cadence" "gen" "appends" "fsyncs" "bytes"
    "live_wal";
  List.iter
    (fun cadence ->
      let rand =
        Larch_hash.Drbg.of_seed (Printf.sprintf "larch-report-wal-%s-%d" seed cadence)
      in
      let disk, log = Scenario.store_log ~checkpoint_every:cadence ~seed rand in
      let client = Scenario.client ~rand log "report-user" in
      Client.enroll ~presignature_count:2 client;
      ignore (Client.register_password client ~rp_name:"rp.example");
      for _ = 1 to auths do
        Larch_util.Clock.advance 30.;
        ignore (Client.authenticate_password client ~rp_name:"rp.example")
      done;
      let gen = Scenario.generation log in
      let live = Disk.size disk ~file:(Store.wal_file Scenario.store_dir gen) in
      let ds = Disk.stats disk in
      Scenario.line w "  %-10d %6d %8d %8d %10d %10d" cadence gen ds.Disk.appends ds.Disk.fsyncs
        ds.Disk.bytes_written live)
    [ 4; 16; 64 ]

let run ?(auths = 6) ~(seed : string) () : result =
  let text, digest =
    Scenario.run ~events:true ~entropy:("larch-report-" ^ seed) @@ fun w ->
    Obs.Flight.clear Obs.Flight.default;
    let incidents_before = Obs.Flight.incident_count Obs.Flight.default in
    let reg = Metrics.create () in
    let obs name v = Metrics.force_observe (Metrics.histogram reg name) v in
    Scenario.line w "larch capacity report (seed=%s, %d auths per method)" seed auths;

    (* --- the seeded world ---------------------------------------------- *)
    let disk, log = Scenario.store_log ~checkpoint_every:16 ~seed w.rand in
    let client = Scenario.client ~net:Larch_net.Netsim.paper_default ~rand:w.rand log "report-user" in
    (* calm injector: no faults, but every exchange pays simulated wire
       time (rtt/2 per leg + bytes/bandwidth) — that is where latency
       comes from *)
    Client.Transport.set_injector client.Client.transport
      (Some (Larch_net.Fault.seeded ~seed Larch_net.Fault.calm));
    let presig_total = (2 * auths) + 2 in
    let timed metric f =
      let t0 = Larch_util.Clock.now () in
      let r = f () in
      obs metric (ms t0 (Larch_util.Clock.now ()));
      r
    in
    timed "enroll.ms" (fun () -> Client.enroll ~presignature_count:presig_total client);
    let rp = Relying_party.create ~name:"rp.example" ~rand_bytes:w.rand () in
    let protos = Scenario.[ Fido2; Totp; Password ] in
    let logins = List.map (fun p -> (p, Scenario.register client rp p)) protos in

    (* --- calm-link latency + presig depletion -------------------------- *)
    let depletion = ref [ (0, Log_service.presignatures_remaining log ~client_id:"report-user") ] in
    for i = 1 to auths do
      List.iter
        (fun (p, login) ->
          Larch_util.Clock.advance 60.;
          timed (Printf.sprintf "auth.%s.ms" (Scenario.proto_name p)) login;
          if p = Scenario.Fido2 then
            depletion :=
              (i, Log_service.presignatures_remaining log ~client_id:"report-user") :: !depletion)
        logins;
      if i mod 3 = 0 then
        timed "audit.ms" (fun () ->
            ignore (Log_service.audit log ~client_id:"report-user" ~token:"pw"));
      Obs.Flight.record Obs.Flight.default
    done;
    Scenario.line w "latency (calm link, paper-default netsim: 20ms rtt, 100 Mbit/s):";
    List.iter
      (fun (label, metric) -> latency_row w.out reg ~label ~metric)
      [ ("fido2", "auth.fido2.ms"); ("totp", "auth.totp.ms"); ("password", "auth.password.ms");
        ("audit", "audit.ms"); ("enroll", "enroll.ms") ];
    Scenario.line w "presignature depletion (start=%d, batch activates after objection window):"
      presig_total;
    List.iter
      (fun (i, remaining) -> Scenario.line w "  after auth %-3d remaining=%d" i remaining)
      (List.rev !depletion);

    (* --- storm segment ------------------------------------------------- *)
    Client.Transport.set_injector client.Client.transport
      (Some (Larch_net.Fault.seeded ~seed Larch_net.Fault.stormy));
    let ok = ref 0 in
    let storm_rounds = max 1 (auths / 2) in
    for _ = 1 to storm_rounds do
      List.iter
        (fun (_, login) ->
          Larch_util.Clock.advance 60.;
          if Scenario.attempt login = Completed then incr ok)
        logins
    done;
    Client.Transport.set_injector client.Client.transport None;
    Client.resync client;
    let st = Client.Transport.stats client.Client.transport in
    let incidents = Obs.Flight.incident_count Obs.Flight.default - incidents_before in
    Scenario.line w "storm segment (stormy profile, %d rounds): %d ok / %d failed (typed)"
      storm_rounds !ok ((3 * storm_rounds) - !ok);
    Scenario.line w "  transport: attempts=%d retries=%d timeouts=%d faults=%d replays=%d"
      st.Client.Transport.attempts st.Client.Transport.retries st.Client.Transport.timeouts
      st.Client.Transport.faults st.Client.Transport.replays;
    Scenario.line w "  disk: %s" (Scenario.disk_counts disk);
    Scenario.line w "  flight recorder: %d incident dump(s)" incidents;
    let audit_resp = Log_service.audit_with_head log ~client_id:"report-user" ~token:"pw" in
    Scenario.line w "  merkle head size=%d root=%s"
      audit_resp.Log_service.sth.Larch_merkle.Merkle.Sth.size
      (Larch_util.Hex.encode audit_resp.Log_service.sth.Larch_merkle.Merkle.Sth.root);
    Scenario.line w "  events emitted=%d" (List.length (Obs.Events.recent ()));

    (* --- WAL growth vs checkpoint cadence ------------------------------ *)
    wal_sweep w ~seed ~auths:(4 * auths);
    Buffer.contents w.out
  in
  { text; digest }

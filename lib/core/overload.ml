(* Deterministic overload scenario: a seeded swarm of concurrent client
   sessions against one store-backed log behind the Log_async admission
   loop, at a configurable offered-load multiple of the log's capacity.
   See overload.mli. *)

module Runtime = Larch_runtime.Runtime
module Transport = Larch_net.Transport
module Clock = Larch_util.Clock

(* 1x offered load: [pw_per_mult] password clients (the cheap bulk
   traffic) plus two FIDO2 probes whose presignature inventory must
   survive the storm intact (the fsck invariant the scenario exists to
   threaten).  Every 16th password client is "hot" — a Zipf-style head
   that fires [hot_auths] authentications instead of [auths_each],
   exercising the per-client token buckets and fair queueing. *)
let pw_per_mult = 20
let fido2_probes = 2
let auths_each = 3
let hot_auths = 10
let fido2_auths = 2

(* The log services one request per [service_time] simulated seconds
   (100 req/s); the storm admission policy bounds the queue at
   [capacity], rate-limits each client, and flips into brownout when the
   queue sits at/above [brownout_hi]. *)
let storm_config =
  {
    Log_async.capacity = 64;
    service_time = 0.01;
    client_rate = 3.;
    client_burst = 4.;
    brownout_hi = 32;
    brownout_lo = 8;
    brownout_enter_ticks = 6;
    brownout_exit_ticks = 12;
  }

(* Post-storm: no admission control, but the brownout watermarks stay
   armed so the state machine exits hysteretically on real (calm)
   traffic instead of being force-reset. *)
let calm_config =
  { storm_config with Log_async.capacity = 0; service_time = 0.; client_rate = 0. }

(* Impatient clients: a short per-attempt budget so deadline shedding has
   teeth, shallow retries, and backoff that stays well under a second. *)
let storm_policy =
  {
    Transport.max_attempts = 3;
    attempt_timeout = 0.3;
    base_backoff = 0.02;
    backoff_factor = 2.;
    max_backoff = 0.5;
    jitter = 0.2;
  }

let retry_budget_capacity = 6.
let retry_budget_refill = 1.

type world = {
  mult : int;
  clients : int;
  offered : int;
  completed : int;
  overloaded : int;
  failed : int;
  storm_elapsed : float;
  goodput : float;
  admission : Log_async.stats;
  attempts : int;
  retries : int;
  shed_attempts : int;
  budget_denied : int;
  brownout_recovered : bool;
  deferred_clients : int;
  audits_ok : int;
  audits_failed : int;
  fsck_clean : bool;
  digest : string;
  summary : string;
}

let run ~(seed : string) ~(mult : int) : world =
  if mult < 1 then invalid_arg "Overload.run: mult must be >= 1";
  let w, digest =
    Scenario.run ~entropy:(Printf.sprintf "larch-overload-%s/%dx" seed mult) @@ fun w ->
    let _, log = Scenario.store_log ~checkpoint_every:64 ~objection_window:0.05 ~seed w.rand in
    let la = Log_async.create log in
    let n_pw = pw_per_mult * mult in
    let n_clients = n_pw + fido2_probes in
    let completed = ref 0 and overloaded = ref 0 and failed = ref 0 in
    let attempts = ref 0 and retries = ref 0 and shed_attempts = ref 0 and budget_denied = ref 0 in
    let audits_ok = ref 0 and audits_failed = ref 0 in
    let deferred_clients = ref 0 in
    let offered = ref 0 in
    let storm_elapsed = ref 0. in
    let brownout_recovered = ref true in
    Runtime.run ~seed:(Printf.sprintf "overload-sched-%s/%dx" seed mult) (fun () ->
        Log_async.start la;
        (* --- setup: enroll and register everyone on an unthrottled log - *)
        let prep =
          Array.init n_clients (fun i ->
              let fido2 = i >= n_pw in
              let cid =
                if fido2 then Printf.sprintf "ovld-f2-%02d" (i - n_pw)
                else Printf.sprintf "ovld-pw-%03d" i
              in
              let proto = if fido2 then Scenario.Fido2 else Scenario.Password in
              let client, login =
                Scenario.session ~policy:storm_policy ~net:Larch_net.Netsim.paper_default
                  ~async:la ~password:("pw-" ^ cid) ~rp_name:("rp-" ^ cid) ~rand:w.rand log cid
                  ~presignatures:(if fido2 then 8 else 1) [ proto ]
              in
              let auths =
                if fido2 then fido2_auths else if i mod 16 = 0 then hot_auths else auths_each
              in
              offered := !offered + auths;
              (cid, client, (fun () -> login proto), proto, auths))
        in
        (* --- the storm: tighten admission, arm retry budgets, fire ----- *)
        Log_async.set_config la storm_config;
        Array.iter
          (fun (_, client, _, _, _) ->
            Transport.set_retry_budget client.Client.transport ~capacity:retry_budget_capacity
              ~refill_per_s:retry_budget_refill)
          prep;
        let t0 = Clock.now () in
        let session i () =
          let cid, client, login, proto, auths = prep.(i) in
          let outcomes = Buffer.create auths in
          let ok = ref 0 and ovl = ref 0 and bad = ref 0 in
          for _ = 1 to auths do
            match Scenario.attempt login with
            | Completed ->
                incr ok;
                Buffer.add_char outcomes 'o'
            | Transport_error { Transport.last = Transport.Overloaded _; _ } ->
                incr ovl;
                Buffer.add_char outcomes 'O'
            | _ | (exception _) ->
                incr bad;
                Buffer.add_char outcomes 'x'
          done;
          completed := !completed + !ok;
          overloaded := !overloaded + !ovl;
          failed := !failed + !bad;
          let st = Transport.stats client.Client.transport in
          attempts := !attempts + st.Transport.attempts;
          retries := !retries + st.Transport.retries;
          shed_attempts := !shed_attempts + st.Transport.overloads;
          budget_denied := !budget_denied + st.Transport.budget_denied;
          Scenario.line w "%s %-8s %d/%d ok, %d overloaded, %d failed [%s] retries=%d shed=%d" cid
            (Scenario.proto_name proto) !ok auths !ovl !bad (Buffer.contents outcomes)
            st.Transport.retries st.Transport.overloads
        in
        let fibers =
          List.init n_clients (fun i ->
              Runtime.spawn ~name:(Printf.sprintf "ovld-%03d" i) (session i))
        in
        List.iter
          (fun p -> match Runtime.await p with () -> () | exception _ -> incr failed)
          fibers;
        storm_elapsed := Clock.now () -. t0;
        (* --- calm: relax admission, verify everything survived --------- *)
        Log_async.set_config la calm_config;
        Array.iter
          (fun (_, client, _, _, _) -> Transport.clear_retry_budget client.Client.transport)
          prep;
        Array.iter
          (fun (cid, client, _, _, _) ->
            if client.Client.att_deferred then incr deferred_clients;
            (match
               Client.resync client;
               Client.audit_verified client
             with
            | Ok entries ->
                incr audits_ok;
                Scenario.line w "%s audit ok (%d records, deferred=%b)" cid (List.length entries)
                  client.Client.att_deferred
            | Error m ->
                incr audits_failed;
                Scenario.line w "%s audit FAILED %s" cid m
            | exception e ->
                incr audits_failed;
                Scenario.line w "%s audit error %s" cid (Printexc.to_string e));
            (* a verified audit must have cleared any brownout deferral *)
            if client.Client.att_deferred then brownout_recovered := false)
          prep;
        if Log_async.brownout_active la then brownout_recovered := false;
        Log_async.stop la);
    let adm = Log_async.stats la in
    let goodput = if !storm_elapsed > 0. then float_of_int !completed /. !storm_elapsed else 0. in
    let fr = Scenario.fsck log in
    let fsck_clean = Log_persist.fsck_clean fr in
    Scenario.line w
      "admission served=%d shed=%d (cap=%d deadline=%d rate=%d) max_queue=%d delay_max=%.3f"
      adm.Log_async.served adm.Log_async.shed_total adm.Log_async.shed_capacity
      adm.Log_async.shed_deadline adm.Log_async.shed_rate adm.Log_async.max_queue
      adm.Log_async.queue_delay_max;
    Scenario.line w "transport attempts=%d retries=%d shed=%d budget_denied=%d" !attempts !retries
      !shed_attempts !budget_denied;
    Scenario.line w "brownout entries=%d ticks=%d recovered=%b deferred_clients=%d"
      adm.Log_async.brownout_entries adm.Log_async.brownout_ticks !brownout_recovered
      !deferred_clients;
    Scenario.line w "storm %d/%d completed, %d overloaded, %d failed in %.3fs (goodput %.1f/s)"
      !completed !offered !overloaded !failed !storm_elapsed goodput;
    Scenario.line w "audits ok=%d failed=%d; fsck %s%s" !audits_ok !audits_failed
      (Scenario.verdict fr) (Scenario.issues fr);
    let summary =
      Printf.sprintf
        "%d clients: %d/%d auths, %d overloaded, %d failed; goodput %.1f/s; shed %d \
         (cap=%d ddl=%d rate=%d); brownout x%d%s; audits %d/%d; fsck %s"
        n_clients !completed !offered !overloaded !failed goodput adm.Log_async.shed_total
        adm.Log_async.shed_capacity adm.Log_async.shed_deadline adm.Log_async.shed_rate
        adm.Log_async.brownout_entries
        (if !brownout_recovered then " (recovered)" else " (STUCK)")
        !audits_ok n_clients (Scenario.verdict fr)
    in
    {
      mult;
      clients = n_clients;
      offered = !offered;
      completed = !completed;
      overloaded = !overloaded;
      failed = !failed;
      storm_elapsed = !storm_elapsed;
      goodput;
      admission = adm;
      attempts = !attempts;
      retries = !retries;
      shed_attempts = !shed_attempts;
      budget_denied = !budget_denied;
      brownout_recovered = !brownout_recovered;
      deferred_clients = !deferred_clients;
      audits_ok = !audits_ok;
      audits_failed = !audits_failed;
      fsck_clean;
      digest = "";
      summary;
    }
  in
  { w with digest }

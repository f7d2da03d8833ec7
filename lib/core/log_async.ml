(* Admission loop: one mailbox in front of the log service, drained by a
   dedicated fiber with bounded, deadline-aware, per-client-fair
   admission control.  See log_async.mli. *)

module Runtime = Larch_runtime.Runtime
module Mailbox = Larch_runtime.Runtime.Mailbox
module Transport = Larch_net.Transport
module Metrics = Larch_obs.Metrics
module Clock = Larch_util.Clock

(* What the admission fiber tells the submitting fiber: its closure ran,
   or it was shed with a retry_after hint (seconds). *)
type verdict = Served | Shed of float

type item = {
  client_id : string;
  op : string;
  req : string option;
  enqueued : float; (* simulated arrival time *)
  deadline : float; (* caller gives up at this simulated time *)
  closure : unit -> unit;
  done_mb : verdict Mailbox.t;
}

type config = {
  capacity : int;
  service_time : float;
  client_rate : float;
  client_burst : float;
  brownout_hi : int;
  brownout_lo : int;
  brownout_enter_ticks : int;
  brownout_exit_ticks : int;
}

let off =
  {
    capacity = 0;
    service_time = 0.;
    client_rate = 0.;
    client_burst = 0.;
    brownout_hi = 0;
    brownout_lo = 0;
    brownout_enter_ticks = 0;
    brownout_exit_ticks = 0;
  }

let controlled cfg = cfg.capacity > 0 || cfg.service_time > 0. || cfg.client_rate > 0.

type stats = {
  served : int;
  shed_capacity : int;
  shed_deadline : int;
  shed_rate : int;
  shed_total : int;
  max_queue : int;
  brownout_entries : int;
  brownout_ticks : int;
  queue_delay_max : float;
}

(* Per-client token bucket, refilled on the simulated clock. *)
type bucket = { mutable tokens : float; mutable stamp : float }

type t = {
  log : Log_service.t;
  inbox : item Mailbox.t;
  mutable cfg : config;
  (* per-client FIFOs drained round-robin: one item per client per turn,
     so a hot client's backlog cannot starve everyone behind it *)
  pending : (string, item Queue.t) Hashtbl.t;
  rr : string Queue.t; (* clients with pending work, in service order *)
  mutable queued : int; (* total items across [pending] *)
  buckets : (string, bucket) Hashtbl.t;
  mutable fiber : unit Runtime.promise option;
  mutable n_batches : int;
  mutable n_batched : int;
  (* brownout state machine (hysteretic) *)
  mutable brownout : bool;
  mutable above_ticks : int;
  mutable below_ticks : int;
  (* counters, kept outside lib/obs so scenario digests work with
     tracing off *)
  mutable n_served : int;
  mutable n_shed_capacity : int;
  mutable n_shed_deadline : int;
  mutable n_shed_rate : int;
  mutable n_max_queue : int;
  mutable n_brownout_entries : int;
  mutable n_brownout_ticks : int;
  mutable queue_delay_max : float;
  mutable first_shed_dumped : bool;
}

let create ?(config = off) log =
  {
    log;
    inbox = Mailbox.create ~name:"log.admission" ();
    cfg = config;
    pending = Hashtbl.create 16;
    rr = Queue.create ();
    queued = 0;
    buckets = Hashtbl.create 16;
    fiber = None;
    n_batches = 0;
    n_batched = 0;
    brownout = false;
    above_ticks = 0;
    below_ticks = 0;
    n_served = 0;
    n_shed_capacity = 0;
    n_shed_deadline = 0;
    n_shed_rate = 0;
    n_max_queue = 0;
    n_brownout_entries = 0;
    n_brownout_ticks = 0;
    queue_delay_max = 0.;
    first_shed_dumped = false;
  }

let set_config t config = t.cfg <- config
let config t = t.cfg
let batches t = t.n_batches
let batched_requests t = t.n_batched
let brownout_active t = t.brownout

let stats t =
  {
    served = t.n_served;
    shed_capacity = t.n_shed_capacity;
    shed_deadline = t.n_shed_deadline;
    shed_rate = t.n_shed_rate;
    shed_total = t.n_shed_capacity + t.n_shed_deadline + t.n_shed_rate;
    max_queue = t.n_max_queue;
    brownout_entries = t.n_brownout_entries;
    brownout_ticks = t.n_brownout_ticks;
    queue_delay_max = t.queue_delay_max;
  }

let obs_on () = Larch_obs.Runtime.tracing_enabled ()
let m_default = Metrics.default

let queued_len t = t.queued + Mailbox.length t.inbox

(* How long a freshly rejected caller should wait before retrying: the
   estimated time to drain what is queued ahead of it, floored so a
   zero-cost service model still spreads retries out, and capped so a
   deep backlog never tells callers to disappear for whole seconds
   (bounding the idle tail after a storm subsides). *)
let retry_hint t =
  Float.min 1.0 (Float.max 0.01 (t.cfg.service_time *. float_of_int (queued_len t + 1)))

type shed_reason = Cap | Deadline | Rate

let record_shed t reason ~op =
  (match reason with
  | Cap -> t.n_shed_capacity <- t.n_shed_capacity + 1
  | Deadline -> t.n_shed_deadline <- t.n_shed_deadline + 1
  | Rate -> t.n_shed_rate <- t.n_shed_rate + 1);
  if obs_on () then Metrics.inc (Metrics.counter m_default "log.admission.shed");
  (* overload is a crash-adjacent event: dump the flight recorder once,
     at the first shed, like disk and transport crashes do *)
  if not t.first_shed_dumped then begin
    t.first_shed_dumped <- true;
    Larch_obs.Flight.incident ~detail:op Larch_obs.Flight.default "log.admission.shed"
  end

(* --- per-client fair queue ------------------------------------------- *)

let fq_push t (it : item) =
  let q =
    match Hashtbl.find_opt t.pending it.client_id with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.pending it.client_id q;
        q
  in
  if Queue.is_empty q then Queue.add it.client_id t.rr;
  Queue.add it q;
  t.queued <- t.queued + 1;
  if t.queued > t.n_max_queue then t.n_max_queue <- t.queued

let fq_pop t : item option =
  match Queue.take_opt t.rr with
  | None -> None
  | Some cid ->
      let q = Hashtbl.find t.pending cid in
      let it = Queue.take q in
      t.queued <- t.queued - 1;
      if not (Queue.is_empty q) then Queue.add cid t.rr;
      Some it

(* --- token buckets ---------------------------------------------------- *)

(* [None] when the client may proceed; [Some ra] when its bucket is dry
   and it should come back in [ra] seconds. *)
let rate_check t (cid : string) : float option =
  let cfg = t.cfg in
  if cfg.client_rate <= 0. then None
  else begin
    let now = Clock.now () in
    let b =
      match Hashtbl.find_opt t.buckets cid with
      | Some b -> b
      | None ->
          let b = { tokens = Float.max 1. cfg.client_burst; stamp = now } in
          Hashtbl.replace t.buckets cid b;
          b
    in
    b.tokens <-
      Float.min (Float.max 1. cfg.client_burst) (b.tokens +. ((now -. b.stamp) *. cfg.client_rate));
    b.stamp <- now;
    if b.tokens >= 1. then begin
      b.tokens <- b.tokens -. 1.;
      None
    end
    else
      (* clamped like [retry_hint]: the transport honors the hint
         verbatim (bypassing policy.max_backoff), so an unclamped value
         under a tiny [client_rate] would stall a caller arbitrarily *)
      Some (Float.min 1.0 (Float.max 0.01 ((1. -. b.tokens) /. cfg.client_rate)))
  end

(* --- brownout state machine ------------------------------------------ *)

let brownout_gauge t v =
  ignore t;
  if obs_on () then
    Metrics.force_set_gauge (Metrics.gauge m_default "log.brownout.active") v

let brownout_tick t =
  let cfg = t.cfg in
  if cfg.brownout_hi > 0 then begin
    let q = t.queued in
    if q >= cfg.brownout_hi then begin
      t.above_ticks <- t.above_ticks + 1;
      t.below_ticks <- 0
    end
    else if q <= cfg.brownout_lo then begin
      t.below_ticks <- t.below_ticks + 1;
      t.above_ticks <- 0
    end
    else begin
      t.above_ticks <- 0;
      t.below_ticks <- 0
    end;
    if (not t.brownout) && t.above_ticks >= cfg.brownout_enter_ticks then begin
      t.brownout <- true;
      t.n_brownout_entries <- t.n_brownout_entries + 1;
      Log_service.set_degraded t.log true;
      brownout_gauge t 1.;
      Larch_obs.Events.emit ~severity:Larch_obs.Events.Warn Larch_obs.Events.Transport_fault
        (Printf.sprintf "log brownout entered (queue=%d)" t.queued)
    end
    else if t.brownout && t.below_ticks >= cfg.brownout_exit_ticks then begin
      t.brownout <- false;
      Log_service.set_degraded t.log false;
      brownout_gauge t 0.;
      Larch_obs.Events.emit ~severity:Larch_obs.Events.Info Larch_obs.Events.Transport_fault
        (Printf.sprintf "log brownout exited (queue=%d)" t.queued)
    end;
    if t.brownout then t.n_brownout_ticks <- t.n_brownout_ticks + 1
  end

(* --- batch signature pre-verification (unchanged from PR 9) ----------- *)

(* Batch-verify every fido2.auth_begin record signature in the batch
   with one multi-scalar sum; deposit skip tokens for the valid ones.
   Anything undecodable or unknown is left for the individual path. *)
let preverify_fido2 t (batch : item list) =
  let candidates =
    List.filter_map
      (fun it ->
        if it.op <> "fido2.auth_begin" then None
        else
          match it.req with
          | None -> None
          | Some bytes -> (
              match Fido2_protocol.decode_auth_request bytes with
              | None -> None
              | Some req -> (
                  match
                    ( Log_service.record_verify_key t.log ~client_id:it.client_id,
                      Larch_ec.Ecdsa.decode req.Fido2_protocol.record_sig )
                  with
                  | Some vk, Some sg -> Some (it.client_id, req, vk, sg)
                  | _ -> None)))
      batch
  in
  (* a singleton batch would do the same work as the individual check —
     only combine when there is something to amortize *)
  if List.length candidates >= 2 then begin
    let triples =
      List.map
        (fun (_, req, vk, sg) ->
          (vk, req.Fido2_protocol.ct_nonce ^ req.Fido2_protocol.ct, sg))
        candidates
    in
    let ok = Larch_ec.Ecdsa.verify_batch triples in
    List.iteri
      (fun i (client_id, req, _, _) ->
        if ok.(i) then
          Log_service.preverify_record_sig t.log ~client_id
            ~ct_nonce:req.Fido2_protocol.ct_nonce ~ct:req.Fido2_protocol.ct
            ~record_sig:req.Fido2_protocol.record_sig)
      candidates;
    if obs_on () then
      Metrics.add
        (Metrics.counter m_default "log.admission.sigs_batch_verified")
        (List.length candidates)
  end

(* Idle work: activate any staged presignature batches whose objection
   window has passed — the refill happens between request bursts instead
   of on a session's critical path.  Deferred while browned out: refills
   are exactly the postponable work.  Client order is sorted for seed
   independence from hash-table internals. *)
let idle_refill t =
  let ids = ref [] in
  Hashtbl.iter (fun cid _ -> ids := cid :: !ids) t.log.Log_service.clients;
  let now = Larch_util.Clock.now () in
  List.iter
    (fun cid ->
      (* clients mid-enrollment have an account but no fido2 share yet *)
      match Log_service.record_verify_key t.log ~client_id:cid with
      | None -> ()
      | Some _ ->
          let n = Log_service.activate_pending t.log ~client_id:cid ~now in
          if n > 0 && obs_on () then
            Metrics.add (Metrics.counter m_default "log.admission.idle_refills") n)
    (List.sort compare !ids)

(* --- the admission loop ----------------------------------------------- *)

let drain_now mb =
  let rec go acc =
    match Mailbox.try_recv mb with Some v -> go (v :: acc) | None -> List.rev acc
  in
  go []

let serve t (it : item) =
  let now = Clock.now () in
  let delay = now -. it.enqueued in
  if delay > t.queue_delay_max then t.queue_delay_max <- delay;
  if obs_on () then
    Metrics.observe (Metrics.histogram m_default "log.admission.queue_delay") delay;
  (* charge the log's service time before executing, so offered load
     beyond 1/service_time genuinely queues (and misses deadlines) *)
  if t.cfg.service_time > 0. then Clock.advance t.cfg.service_time;
  it.closure ();
  t.n_served <- t.n_served + 1;
  Mailbox.send it.done_mb Served

let shed t (it : item) reason ra =
  record_shed t reason ~op:it.op;
  Mailbox.send it.done_mb (Shed ra)

let rec admission_loop t =
  (* idle: refill presignatures before parking (deferred while browned
     out — refills are exactly the postponable work) *)
  if t.queued = 0 && Mailbox.length t.inbox = 0 && not t.brownout then idle_refill t;
  (* gather: block only when there is nothing left to do *)
  let fresh = if t.queued = 0 then Mailbox.recv_batch t.inbox else drain_now t.inbox in
  (match fresh with
  | [] -> ()
  | batch ->
      t.n_batches <- t.n_batches + 1;
      let n = List.length batch in
      if n > 1 then t.n_batched <- t.n_batched + n;
      if obs_on () then
        Metrics.observe
          (Metrics.histogram m_default "log.admission.batch_size")
          (float_of_int n);
      preverify_fido2 t batch;
      List.iter (fq_push t) batch);
  brownout_tick t;
  (match fq_pop t with
  | None -> ()
  | Some it ->
      let now = Clock.now () in
      if controlled t.cfg && it.deadline < now +. t.cfg.service_time then
        (* cannot finish before the caller gives up: shed instead of
           burning service time on a request nobody is waiting for *)
        shed t it Deadline (retry_hint t)
      else begin
        match rate_check t it.client_id with
        | Some ra -> shed t it Rate ra
        | None -> serve t it
      end);
  admission_loop t

let start t =
  match t.fiber with
  | Some _ -> ()
  | None ->
      t.fiber <-
        Some (Runtime.spawn ~name:"log.admission" (fun () -> admission_loop t))

let stop t =
  match t.fiber with
  | None -> ()
  | Some p ->
      (* drain stragglers before honoring the cancel, so no submitting
         fiber is left waiting on its done-signal.  With a service-time
         model the loop parks on timers, and timers only fire when the
         ready set is empty — so wait by sleeping, never by busy-yield *)
      while t.queued > 0 || Mailbox.length t.inbox > 0 do
        if t.cfg.service_time > 0. then Runtime.sleep (Float.max 0.001 t.cfg.service_time)
        else Runtime.yield ()
      done;
      Runtime.cancel p;
      (match Runtime.await p with
      | () -> ()
      | exception Runtime.Cancelled -> ());
      if t.brownout then begin
        t.brownout <- false;
        Log_service.set_degraded t.log false;
        brownout_gauge t 0.
      end;
      t.fiber <- None

let attach t ~client_id transport =
  Transport.set_executor transport
    (Some
       (fun ~op ~req ~deadline closure ->
         match t.fiber with
         | None ->
             (* no admission fiber running: execute directly *)
             closure ()
         | Some _ when Runtime.self_name () = Some "log.admission" ->
             (* the loop itself re-entering (a handler that performs a
                nested exchange): run inline, never self-enqueue *)
             closure ()
         | Some _ ->
             (* bounded inbox: reject at the door when full, before the
                caller parks — the cheapest possible shed *)
             if t.cfg.capacity > 0 && queued_len t >= t.cfg.capacity then begin
               record_shed t Cap ~op;
               raise (Transport.Overload (retry_hint t))
             end;
             let done_mb = Mailbox.create ~name:("done." ^ op) () in
             Mailbox.send t.inbox
               { client_id; op; req; enqueued = Clock.now (); deadline; closure; done_mb };
             (match Mailbox.recv done_mb with
             | Served -> ()
             | Shed ra -> raise (Transport.Overload ra))))

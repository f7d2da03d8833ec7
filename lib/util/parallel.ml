(* Domain-based fork/join parallelism.

   The larch client parallelises ZKBoo proving across repetition batches
   (Figure 3, left: latency vs. client cores).  [map ~domains f xs] evaluates
   [f] on each element of [xs] using at most [domains] concurrent domains.
   [domains = 1] runs sequentially in the calling domain, which keeps
   single-core measurements free of domain overhead.

   Observability: each worker runs under a "parallel.worker" span adopted
   into the caller's current span (so spans opened inside [f] nest
   correctly across domains), and per-domain busy time aggregates into
   [Larch_obs.Metrics.default] — the histogram "parallel.worker_busy_ms"
   and the gauge "parallel.utilization".  Busy time is the sum of the
   actual task spans (time inside [f]), not worker lifetime, and the
   utilization divisor is the *requested* domain budget × wall — so a
   section whose tail chunk occupies one worker while the rest sit idle
   reads as the fraction of the budget it really used, instead of the
   former over-report that divided by however many workers happened to be
   clamped on and billed their span bookkeeping as busy.  All of it
   compiles to a single atomic load when tracing is disabled. *)

module Obs = Larch_obs

let available_cores () = Domain.recommended_domain_count ()

let map ~(domains : int) (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  if domains <= 1 || n <= 1 then Array.map f xs
  else begin
    let budget = domains in
    let workers = min domains n in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let traced = Obs.Runtime.tracing_enabled () in
    let parent = if traced then Obs.Trace.current () else None in
    let busy_ns = Array.make workers 0L in
    let body w =
      let rec loop count =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          if traced then begin
            let t0 = Obs.Trace.now_ns () in
            results.(i) <- Some (f xs.(i));
            busy_ns.(w) <- Int64.add busy_ns.(w) (Int64.sub (Obs.Trace.now_ns ()) t0)
          end
          else results.(i) <- Some (f xs.(i));
          loop (count + 1)
        end
        else count
      in
      loop 0
    in
    let worker w () =
      if not traced then ignore (body w)
      else
        (* lane 1000+w: a stable trace row per worker slot — domain ids are
           recycled across parallel sections and would interleave rows *)
        Obs.Trace.with_tid (1000 + w) (fun () ->
            Obs.Trace.with_parent parent (fun () ->
                Obs.Trace.with_span "parallel.worker" (fun () ->
                    Obs.Trace.add_int "worker" w;
                    let tasks = body w in
                    Obs.Trace.add_int "tasks" tasks)))
    in
    let t_start = if traced then Obs.Trace.now_ns () else 0L in
    let spawned = Array.init (workers - 1) (fun w -> Domain.spawn (worker (w + 1))) in
    worker 0 ();
    Array.iter Domain.join spawned;
    if traced then begin
      let m = Obs.Metrics.default in
      let wall = Int64.to_float (Int64.sub (Obs.Trace.now_ns ()) t_start) in
      let busy = ref 0. in
      Array.iter
        (fun b ->
          busy := !busy +. Int64.to_float b;
          Obs.Metrics.observe (Obs.Metrics.histogram m "parallel.worker_busy_ms")
            (Int64.to_float b /. 1e6))
        busy_ns;
      if wall > 0. then
        Obs.Metrics.set_gauge
          (Obs.Metrics.gauge m "parallel.utilization")
          (!busy /. (wall *. float_of_int budget))
    end;
    Array.map
      (function Some r -> r | None -> failwith "Parallel.map: missing result")
      results
  end

(* Overlap two independent computations: [f] on a spawned domain, [g] on
   the calling one; with [domains <= 1], [f ()] then [g ()] in the calling
   domain.  [f] must not touch state the calling domain uses meanwhile.
   Traced like [map]'s workers: [f] runs under a "parallel.worker" span
   on lane 1000 adopted into the caller's span, and the caller's wait for
   it is a "parallel.join" span. *)
let both ~(domains : int) (f : unit -> 'a) (g : unit -> 'b) : 'a * 'b =
  if domains <= 1 then
    let a = f () in
    (a, g ())
  else begin
    let traced = Obs.Runtime.tracing_enabled () in
    let parent = if traced then Obs.Trace.current () else None in
    let d =
      Domain.spawn (fun () ->
          if not traced then f ()
          else
            Obs.Trace.with_tid 1000 (fun () ->
                Obs.Trace.with_parent parent (fun () -> Obs.Trace.with_span "parallel.worker" f)))
    in
    match g () with
    | b -> (Obs.Trace.with_span "parallel.join" (fun () -> Domain.join d), b)
    | exception e ->
        (try ignore (Domain.join d) with _ -> ());
        raise e
  end

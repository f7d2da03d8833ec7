(* Process-global metrics registry: named counters, gauges, and
   high-resolution latency histograms (see {!Histo}: HDR-style log-linear
   buckets, quantiles within ≈1%).

   Naming convention: [layer.component.op], lowercase, dot-separated
   (e.g. "net.fido2.bytes_up", "log.records.stored", "span.zkboo.prove").

   Counters are lock-free ([Atomic]); gauges and histograms take a
   per-metric mutex, which is fine because they are only touched at span
   granularity, never per-gate/per-byte.  All mutating entry points except
   the [force_*] family are no-ops while [Runtime.tracing] is off, so an
   uninstrumented run pays one atomic load per call site and allocates
   nothing.

   Registries [snapshot] (a deterministic, name-sorted value the flight
   recorder and the exporters consume) and [merge] (cross-registry
   aggregation: counters add, gauges add, histograms bucket-merge — the
   primitive a domain-sharded log needs to fold per-domain registries into
   one capacity view). *)

type counter = { cname : string; cell : int Atomic.t }
type gauge = { gname : string; gmu : Mutex.t; mutable gval : float }
type histogram = { hname : string; hmu : Mutex.t; core : Histo.t }

type t = {
  mu : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () : t =
  {
    mu = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 32;
  }

(* The registry used by all built-in instrumentation. *)
let default : t = create ()

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let get_or_add (type v) mu (tbl : (string, v) Hashtbl.t) (name : string) (mk : unit -> v) : v =
  with_lock mu (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
          let m = mk () in
          Hashtbl.replace tbl name m;
          m)

let counter (t : t) (name : string) : counter =
  get_or_add t.mu t.counters name (fun () -> { cname = name; cell = Atomic.make 0 })

let gauge (t : t) (name : string) : gauge =
  get_or_add t.mu t.gauges name (fun () -> { gname = name; gmu = Mutex.create (); gval = 0. })

let histogram (t : t) (name : string) : histogram =
  get_or_add t.mu t.histograms name (fun () ->
      { hname = name; hmu = Mutex.create (); core = Histo.create () })

(* --- mutation (no-ops while tracing is disabled) --- *)

let add (c : counter) (n : int) =
  if Runtime.tracing_enabled () then ignore (Atomic.fetch_and_add c.cell n)

let inc (c : counter) = add c 1
let counter_value (c : counter) = Atomic.get c.cell

(* Cold-path mutators that bypass the runtime toggle: used by explicit
   snapshot transfers and deterministic harnesses (e.g.
   [Larch_net.Channel.observe], `larch report`) where the caller, not the
   toggle, decides that the data is wanted. *)
let force_add (c : counter) (n : int) = ignore (Atomic.fetch_and_add c.cell n)

let set_gauge (g : gauge) (v : float) =
  if Runtime.tracing_enabled () then with_lock g.gmu (fun () -> g.gval <- v)

let force_set_gauge (g : gauge) (v : float) = with_lock g.gmu (fun () -> g.gval <- v)
let gauge_value (g : gauge) = g.gval

let force_observe (h : histogram) (v : float) =
  with_lock h.hmu (fun () -> Histo.observe h.core v)

let observe (h : histogram) (v : float) =
  if Runtime.tracing_enabled () then force_observe h v

(* --- queries --- *)

let histogram_count (h : histogram) = Histo.count h.core
let histogram_sum (h : histogram) = Histo.sum h.core
let histogram_mean (h : histogram) = Histo.mean h.core
let histogram_min (h : histogram) = Histo.min_value h.core
let histogram_max (h : histogram) = Histo.max_value h.core

(* q in [0,1]; resolution is one log-linear sub-bucket (≈1%), clamped to
   the observed min/max.  This fixes the old log₂ shim's midpoint bias
   (geometric bucket midpoints up to 41% from every sample in the bucket)
   while keeping the call signature PR 1 call sites compiled against. *)
let percentile (h : histogram) (q : float) : float =
  with_lock h.hmu (fun () -> Histo.percentile h.core q)

let reset (t : t) =
  with_lock t.mu (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) t.counters;
      Hashtbl.iter (fun _ g -> g.gval <- 0.) t.gauges;
      Hashtbl.iter (fun _ h -> with_lock h.hmu (fun () -> Histo.reset h.core)) t.histograms)

(* --- snapshot: a deterministic, name-sorted view of a registry --- *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_mean : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_p999 : float;
  hs_buckets : (float * int) list; (* (bucket upper bound, count), increasing *)
}

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * hist_snapshot) list;
}

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let hist_snapshot (h : histogram) : hist_snapshot =
  with_lock h.hmu (fun () ->
      let c = h.core in
      {
        hs_count = Histo.count c;
        hs_sum = Histo.sum c;
        hs_min = Histo.min_value c;
        hs_max = Histo.max_value c;
        hs_mean = Histo.mean c;
        hs_p50 = Histo.percentile c 0.50;
        hs_p90 = Histo.percentile c 0.90;
        hs_p99 = Histo.percentile c 0.99;
        hs_p999 = Histo.percentile c 0.999;
        hs_buckets = List.map (fun (_, hi, n) -> (hi, n)) (Histo.nonzero_buckets c);
      })

let snapshot (t : t) : snapshot =
  with_lock t.mu (fun () ->
      {
        s_counters = List.map (fun (n, c) -> (n, counter_value c)) (sorted_bindings t.counters);
        s_gauges = List.map (fun (n, g) -> (n, g.gval)) (sorted_bindings t.gauges);
        s_histograms = List.map (fun (n, h) -> (n, hist_snapshot h)) (sorted_bindings t.histograms);
      })

(* --- merge: fold [src] into [into] (cross-registry aggregation) --- *)

(* Bypasses the runtime toggle like the [force_*] family: merging is an
   explicit cold-path aggregation step, not hot-path instrumentation.
   Counters and gauges add (a sharded pool's depth is the sum of the
   per-shard depths); histograms bucket-merge losslessly. *)
let merge ~(into : t) (src : t) : unit =
  let src_counters = with_lock src.mu (fun () -> sorted_bindings src.counters) in
  let src_gauges = with_lock src.mu (fun () -> sorted_bindings src.gauges) in
  let src_histograms = with_lock src.mu (fun () -> sorted_bindings src.histograms) in
  List.iter
    (fun (name, c) ->
      let v = counter_value c in
      if v <> 0 then force_add (counter into name) v)
    src_counters;
  List.iter
    (fun (name, g) ->
      let v = g.gval in
      if v <> 0. then begin
        let dst = gauge into name in
        with_lock dst.gmu (fun () -> dst.gval <- dst.gval +. v)
      end)
    src_gauges;
  List.iter
    (fun (name, h) ->
      if Histo.count h.core > 0 then begin
        let dst = histogram into name in
        let copied = with_lock h.hmu (fun () -> Histo.copy h.core) in
        with_lock dst.hmu (fun () -> Histo.merge_into ~into:dst.core copied)
      end)
    src_histograms

(* --- rendering --- *)

(* The unit of a histogram's samples, read off its name: spans and
   [*_ms]/[*.ms] metrics are milliseconds, [*bytes] metrics bytes,
   [*delay] metrics (admission queue delay) simulated seconds; anything
   else (batch and group sizes) is a plain count. *)
let unit_of_name (name : string) : string =
  let ends suffix = String.ends_with ~suffix name in
  if String.starts_with ~prefix:"span." name || ends "_ms" || ends ".ms" then "ms"
  else if ends "bytes" then "B"
  else if ends "delay" then "s"
  else "count"

let report (t : t) : string =
  let s = snapshot t in
  let buf = Buffer.create 1024 in
  if s.s_counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-42s %12d\n" name v))
      s.s_counters
  end;
  if s.s_gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-42s %12.3f\n" name v))
      s.s_gauges
  end;
  if s.s_histograms <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "histograms:\n  %-42s %-5s %8s %9s %9s %9s %9s %9s\n" "name" "unit"
         "count" "mean" "p50" "p95" "p99" "max");
    List.iter
      (fun (name, _) ->
        let h = histogram t name in
        if histogram_count h > 0 then
          Buffer.add_string buf
            (Printf.sprintf "  %-42s %-5s %8d %9.2f %9.2f %9.2f %9.2f %9.2f\n" name
               (unit_of_name name) (histogram_count h) (histogram_mean h) (percentile h 0.50) (percentile h 0.95)
               (percentile h 0.99) (histogram_max h)))
      s.s_histograms
  end;
  Buffer.contents buf

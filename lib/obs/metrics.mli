(** Metrics registry: named counters, gauges, and high-resolution latency
    histograms (HDR-style log-linear buckets, quantiles within ≈1% — see
    {!Histo}).

    Naming convention: [layer.component.op], lowercase, dot-separated
    (e.g. ["net.fido2.bytes_up"], ["span.zkboo.prove"]).

    All mutating entry points except the [force_*] family are no-ops while
    [Runtime.tracing] is disabled, and the disabled path allocates
    nothing. *)

type counter
type gauge
type histogram

type t
(** A registry.  Built-in instrumentation writes to {!default}; tests and
    embedders can create private registries. *)

val create : unit -> t
val default : t

val counter : t -> string -> counter
(** Get or create (registration is idempotent and thread-safe). *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val add : counter -> int -> unit
val inc : counter -> unit
val counter_value : counter -> int

val force_add : counter -> int -> unit
(** Like {!add} but bypasses the runtime toggle: for explicit cold-path
    snapshot exports (e.g. [Larch_net.Channel.observe]) where the call
    itself is the opt-in. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val force_set_gauge : gauge -> float -> unit
(** {!set_gauge} minus the runtime toggle (deterministic harnesses). *)

val observe : histogram -> float -> unit
(** Record one observation (by convention: milliseconds for latency). *)

val force_observe : histogram -> float -> unit
(** {!observe} minus the runtime toggle (deterministic harnesses). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val histogram_mean : histogram -> float

val histogram_min : histogram -> float
(** [infinity] while empty. *)

val histogram_max : histogram -> float
(** [neg_infinity] while empty. *)

val percentile : histogram -> float -> float
(** [percentile h 0.99] estimates the q-quantile at the midpoint of the
    winning log-linear sub-bucket, clamped to the observed min/max; the
    resolution is one sub-bucket (≈1%). *)

val reset : t -> unit
(** Zero every registered metric (metrics stay registered). *)

(** {2 Snapshots} *)

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
  hs_buckets : (float * int) list;
      (** (bucket upper bound, count) for non-empty buckets, increasing. *)
}

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * hist_snapshot) list;
}
(** All three lists sorted by metric name: a deterministic value the
    flight recorder and the exporters consume. *)

val snapshot : t -> snapshot

val merge : into:t -> t -> unit
(** Fold [src] into [into]: counters and gauges add, histograms
    bucket-merge losslessly (see {!Histo.merge_into}).  Metrics missing
    from [into] are registered.  Bypasses the runtime toggle — merging is
    an explicit aggregation step, the primitive for folding per-domain
    registries of a sharded log into one capacity view. *)

val report : t -> string
(** Render counters, gauges, and histogram summary rows (unit, count,
    mean, p50/p95/p99, max) as an aligned text table.  A histogram's unit
    is read off its name: [span.*], [*_ms] and [*.ms] are milliseconds,
    [*bytes] bytes ([B]), [*delay] seconds ([s]), anything else a
    [count]. *)

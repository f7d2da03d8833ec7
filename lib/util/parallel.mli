(** Domain-based fork/join parallelism.  The larch client parallelizes
    ZKBoo proving across repetition batches (Figure 3, left). *)

val available_cores : unit -> int

val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Evaluate [f] over the array with at most [domains] concurrent domains;
    [domains = 1] runs sequentially in the calling domain (no overhead on
    single-core measurements). *)

val both : domains:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both ~domains f g] runs [f] on a second domain while the calling
    domain runs [g], when [domains >= 2]; otherwise [f ()] then [g ()],
    sequentially.  [f] must not touch anything the calling domain uses
    meanwhile (a DRBG, a channel, the clock, the runtime).  An exception
    from either is re-raised after both have finished. *)

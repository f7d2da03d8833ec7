(** Two-party garbled-circuit execution over metered channels.

    One full Yao run between a garbler (the larch client) and an evaluator
    (the log), with traffic split into the offline (base OTs + garbled
    tables) and online (OT extension, input labels, evaluation, output
    exchange) phases that Figure 3 (right) and Table 6 report. *)

module Circuit = Larch_circuit.Circuit
module Channel = Larch_net.Channel

type config = {
  circuit : Circuit.t;
  n_garbler_inputs : int; (** input wires [0, n) belong to the garbler *)
  n_evaluator_outputs : int; (** output wires [0, n) are revealed to the evaluator *)
}

type timings = {
  offline_seconds : float;
  online_seconds : float;
  evaluator_seconds : float; (** the log's CPU share, for throughput/cost *)
}

type outcome = {
  garbler_outputs : int array;
  evaluator_outputs : int array;
  timings : timings;
}

exception Cheating of string

val garbler_outputs : Garble.garbling -> first:int -> string array -> int array
(** The garbler's decode of the output labels the evaluator returned for
    outputs [first, first + n).
    @raise Cheating if one is neither of that wire's two valid labels *)

val run :
  ?domains:int ->
  config ->
  garbler_inputs:bool array ->
  evaluator_inputs:bool array ->
  rand_garbler:(int -> string) ->
  rand_evaluator:(int -> string) ->
  offline:Channel.t ->
  online:Channel.t ->
  outcome
(** [domains] (default 1) is the garbler's core budget: at 2 or more the
    base-OT arithmetic runs on a second domain while the calling domain
    garbles.  All DRBG draws stay on the calling domain, in the same order
    either way, so the outcome and every byte sent are the same.
    @raise Cheating if the evaluator returns an invalid output label *)

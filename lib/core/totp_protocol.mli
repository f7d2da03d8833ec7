(** Split-secret TOTP authentication (§4).

    Registration XOR-splits the relying party's TOTP secret under a random
    128-bit identifier; authentication executes the
    {!Larch_circuit.Larch_statements.totp_circuit} with the Yao runner.
    The log (evaluator) learns only the validity bit and an encrypted
    record; the client (garbler) learns the full HMAC, truncated to the
    6-digit code in the clear. *)

module Wire = Larch_net.Wire
module Statements = Larch_circuit.Larch_statements
module Yao = Larch_mpc.Yao
module Channel = Larch_net.Channel

type registration = { id : string; klog : string }

val encode_registration : registration -> string
val decode_registration : string -> registration option

val evaluator_output_bits : int
(** Output wires revealed to the log: ok(1) ‖ ct(128). *)

type outcome = {
  code : int; (** the 6-digit TOTP code (client side) *)
  hmac : string; (** the full 20-byte HMAC released by the circuit *)
  ok : bool; (** log-side validity bit (commitment + id-membership) *)
  ct : string; (** log-side encrypted record *)
  timings : Yao.timings;
}

val run_auth_on :
  domains:int ->
  pub:Statements.totp_public ->
  n_rps:int ->
  client:string * string * string * string ->
  registrations:(string * string) list ->
  rand_client:(int -> string) ->
  rand_log:(int -> string) ->
  offline:Channel.t ->
  online:Channel.t ->
  outcome
(** One full 2PC execution.  [client] is (archive key, commitment nonce,
    registration id, client key share); [registrations] the log's
    (id, klog) table; [domains] is the client's core budget (see
    {!Larch_mpc.Yao.run}): the outcome, every byte sent and every DRBG draw
    are the same at each value. *)

val run_auth :
  pub:Statements.totp_public ->
  n_rps:int ->
  client:string * string * string * string ->
  registrations:(string * string) list ->
  rand_client:(int -> string) ->
  rand_log:(int -> string) ->
  offline:Channel.t ->
  online:Channel.t ->
  outcome
(** [run_auth_on ~domains:1]. *)

(** Chaum–Pedersen discrete-log-equality proofs: log_b1(Y₁) = log_b2(Y₂).

    A log server attaches one to its password response h = c₂^k to show it
    exponentiated with the key it registered as K = g^k, so a faulty log
    cannot silently hand the client a wrong password share. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar

type proof = { a1 : Point.t; a2 : Point.t; z : Scalar.t }

val prove :
  base1:Point.t ->
  base2:Point.t ->
  public1:Point.t ->
  public2:Point.t ->
  secret:Scalar.t ->
  tag:string ->
  rand_bytes:(int -> string) ->
  proof
(** Requires public1 = base1^secret and public2 = base2^secret (the prover
    already holds both; a wrong pair yields a proof that does not verify).
    One fresh nonce, two scalar multiplications. *)

val verify :
  base1:Point.t ->
  base2:Point.t ->
  public1:Point.t ->
  public2:Point.t ->
  tag:string ->
  proof ->
  bool
(** Two exact multi-scalar sums, a₁ + c·Y₁ − z·b₁ = ∞ and the same for
    b₂. *)

val encode : proof -> string
val decode : string -> proof option

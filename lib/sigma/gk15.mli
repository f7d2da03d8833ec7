(** Groth–Kohlweiss one-out-of-many proofs (EUROCRYPT 2015).

    Statement: among commitments c₀…c₍N₋₁₎ under Com(m; ρ) = g^m·h^ρ, the
    prover knows an index ℓ and randomness r with c_ℓ = Com(0; r) = h^r.

    Larch's password protocol instantiates this twice per authentication
    (§5, App. C) over cᵢ = c₂ / Hash(idᵢ) to show the submitted ElGamal
    ciphertext encrypts a *registered* relying-party identifier — without
    revealing which.  Proofs are O(log N) group elements; proving and
    verification are O(N) group operations. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar

type proof = {
  n : int; (** padded commitment-set size (power of two) *)
  c_l : Point.t array; (** commitments to the bits of ℓ *)
  c_a : Point.t array;
  c_b : Point.t array;
  c_d : Point.t array; (** the masked polynomial-coefficient commitments *)
  f : Scalar.t array; (** responses f_j = ℓ_j·ξ + a_j *)
  z_a : Scalar.t array;
  z_b : Scalar.t array;
  z_d : Scalar.t;
}

val prove :
  key:Pedersen.key ->
  commitments:Point.t array ->
  index:int ->
  opening:Scalar.t ->
  tag:string ->
  rand_bytes:(int -> string) ->
  proof
(** Requires [commitments.(index) = key.h ^ opening].  The set is padded to
    a power of two by repeating the last element; [tag] domain-separates the
    Fiat–Shamir challenge.  A key with a trapdoor
    ({!Pedersen.make_trapdoor}) gives the same proof bytes, faster.  Traced
    as [gk15.prove] with attribute [n] (the padded size).
    @raise Invalid_argument on an empty set or an index outside it *)

val verify : key:Pedersen.key -> commitments:Point.t array -> tag:string -> proof -> bool
(** Checks each of the 2m+1 verification equations as one exact
    multi-scalar sum (no random weights).  [false] on an empty set.  Traced
    as [gk15.verify] with attribute [n]. *)

val encode : proof -> string
val decode : string -> proof option
val size_bytes : proof -> int

(**/**)

val next_pow2 : int -> int
val log2 : int -> int
val pad : Point.t array -> Point.t array
val poly_mul : Scalar.t array -> Scalar.t array -> Scalar.t array

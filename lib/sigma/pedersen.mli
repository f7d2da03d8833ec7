(** Pedersen commitments Com(m; r) = g^m · h^r over P-256, g the standard
    base point.

    {!Gk15} is generic in the second generator: larch's password protocol
    instantiates [h] with the client's ElGamal public key (π₁) or the
    ciphertext component c₁ (π₂), so "commitment to 0" means "h^r for
    known r". *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar

type key = {
  h : Point.t;
  log_h : Scalar.t option;
      (** log_g h, when the committer knows it (a prover's trapdoor); a
          verifier's key never carries it *)
}

val default_h : Point.t Lazy.t
(** A nothing-up-my-sleeve independent generator (hash-to-curve). *)

val default : key Lazy.t
val make : h:Point.t -> key

val make_trapdoor : h:Point.t -> log_h:Scalar.t -> key
(** A prover's key: requires h = g^log_h.  Commitments under it are the
    same points as under [make ~h], computed with one base-point
    multiplication. *)

val commit : key -> msg:Scalar.t -> rand:Scalar.t -> Point.t
(** One [Point.mul_base] with the trapdoor, one [Point.mul_add] without. *)

val verify : key -> commitment:Point.t -> msg:Scalar.t -> rand:Scalar.t -> bool

(* Pedersen commitments Com(m; r) = g^m · h^r over P-256, g the standard
   base point.

   The Groth–Kohlweiss proof is generic in the second generator h: larch's
   password protocol instantiates h with the client's ElGamal public key X
   (for π₁) or the ciphertext component c₁ (for π₂), so that "c is a
   commitment to 0" means exactly "c = h^r for known r".  In both cases the
   prover also knows log_g h (x, resp. r), and a key carrying it commits
   with one base-point multiplication: g^m·h^r = g^(m + log_g h · r).  The
   verifier's key never carries it. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar

type key = { h : Point.t; log_h : Scalar.t option }

(* A nothing-up-my-sleeve independent generator for standalone uses. *)
let default_h : Point.t Lazy.t = lazy (Larch_ec.Hash_to_curve.hash "larch-pedersen-h")

let default : key Lazy.t = lazy { h = Lazy.force default_h; log_h = None }

let make ~(h : Point.t) : key = { h; log_h = None }
let make_trapdoor ~(h : Point.t) ~(log_h : Scalar.t) : key = { h; log_h = Some log_h }

let commit (k : key) ~(msg : Scalar.t) ~(rand : Scalar.t) : Point.t =
  match k.log_h with
  | Some t -> Point.mul_base (Scalar.add msg (Scalar.mul t rand))
  | None -> Point.mul_add msg rand k.h

let verify (k : key) ~(commitment : Point.t) ~(msg : Scalar.t) ~(rand : Scalar.t) : bool =
  Point.equal commitment (commit k ~msg ~rand)

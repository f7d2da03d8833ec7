(** P-256 group operations (Jacobian coordinates).

    The group underlying every public-key operation in larch: FIDO2's ECDSA
    (required by the standard), the ElGamal archive encryption, the
    password protocol's blinded Diffie-Hellman, and all sigma protocols. *)

module Fe = P256.Fe
module Scalar = P256.Scalar

(** Jacobian point: (X, Y, Z) represents the affine point (X/Z², Y/Z³);
    Z = 0 is the point at infinity. *)
type t = { x : Fe.t; y : Fe.t; z : Fe.t }

val infinity : t
val is_infinity : t -> bool
val of_affine : x:Fe.t -> y:Fe.t -> t

val g : t
(** The standard base point. *)

val to_affine : t -> (Fe.t * Fe.t) option
(** [None] for the point at infinity.  Costs one field inversion unless the
    point is already affine (Z = 1). *)

val normalize_batch : t array -> t array
(** The same points with Z = 1 (infinity stays infinity), for one field
    inversion in total (Montgomery's trick) instead of one per point: so
    the {!encode}s, transcript absorbs and {!to_affine}s that follow cost no
    inversion. *)

val equal : t -> t -> bool
(** Projective-coordinate-independent equality (no inversion). *)

val double : t -> t
val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t

val mul : Scalar.t -> t -> t
(** Variable-point scalar multiplication (width-5 wNAF); the comb of
    {!mul_base} when the point is physically {!g}. *)

val mul_base : Scalar.t -> t
(** Base-point multiplication via a cached comb table; ~4× faster than
    [mul _ g]. *)

val mul_add : Scalar.t -> Scalar.t -> t -> t
(** [mul_add k1 k2 q] is k1·G + k2·Q via Strauss–Shamir interleaving: one
    shared doubling chain instead of two full ladders.  The shape of ECDSA
    verification (u1·G + u2·Q). *)

val multi_mul : (Scalar.t * t) array -> t
(** Σᵢ kᵢ·Pᵢ, exact for every input (zero scalars, infinity, repeated or
    opposite bases).  Straus's interleaved width-5 wNAF on one shared
    doubling chain up to {!multi_mul_crossover} variable-base terms,
    Pippenger's buckets above; terms whose base is (physically) {!g} fold
    into one lane on the cached table.  The workhorse of Groth–Kohlweiss
    proving and verification. *)

val is_on_curve : t -> bool

(** {1 Encodings} *)

val encode : t -> string
(** SEC1 uncompressed (65 bytes); infinity encodes as a single zero byte. *)

val decode : string -> t option
(** Validates the point is on the curve. *)

val decode_exn : string -> t

val encode_compressed : t -> string
(** SEC1 compressed (33 bytes). *)

val decode_compressed : string -> t option

val x_scalar : t -> Scalar.t
(** ECDSA's conversion function f : G → Z_n (the x-coordinate mod n).
    @raise Invalid_argument on infinity *)

val random : rand_bytes:(int -> string) -> Scalar.t * t
(** A uniform keypair (k, k·G). *)

val pp : Format.formatter -> t -> unit

(**/**)

val multi_mul_crossover : int
(** The largest count of variable-base terms {!multi_mul} sums with
    Straus; above it, Pippenger. *)

val base_table_builds : unit -> int
(** How many times the cached base-point tables have been constructed;
    stays at most 1 per table even when first forced concurrently from
    several domains (regression hook for the once-only guarantee). *)

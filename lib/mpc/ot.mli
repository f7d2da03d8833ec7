(** 1-out-of-2 oblivious transfer (Chou–Orlandi shape over P-256).

    Only used as the base OTs of {!Ot_ext}; bulk transfers go through the
    extension. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar

type sender_state
type sender_setup = { s_pub : Point.t }

val sender_setup : Scalar.t -> sender_state * sender_setup
(** The sender's secret a (a uniform nonzero scalar) and A = g^a. *)

type receiver_state
type receiver_msg = { r_pub : Point.t }

val receiver_choose :
  setup:sender_setup -> choice:int -> Scalar.t -> receiver_state * receiver_msg
(** With the receiver's secret b (a uniform nonzero scalar): B = g^b for
    choice 0, A·g^b for choice 1. *)

val sender_keys : state:sender_state -> msg:receiver_msg -> key_len:int -> string * string
(** Both pads: k₀ = H(B^a), k₁ = H((B/A)^a); the receiver can compute only
    the chosen one.  k₁ comes from B^a and the sender's cached A^a, so a
    call costs one variable-base multiplication. *)

type sender_payload = { e0 : string; e1 : string }

val sender_encrypt :
  state:sender_state -> msg:receiver_msg -> m0:string -> m1:string -> sender_payload

val receiver_recover : state:receiver_state -> choice:int -> sender_payload -> string

(**/**)

val derive_key : string -> Point.t -> int -> string

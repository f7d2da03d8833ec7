(* 1-out-of-2 oblivious transfer (Chou–Orlandi "simplest OT" shape, over
   P-256, random-oracle key derivation).

   Used only as the *base* OTs of the IKNP extension ([Ot_ext]); the TOTP
   garbled-circuit execution transfers the log's input-wire labels with the
   extension, not with these (relatively expensive) public-key OTs. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar

type sender_state = { a : Scalar.t; a_a : Point.t (* a·A *) }
type sender_setup = { s_pub : Point.t }

(* Callers draw the scalars themselves, so every DRBG draw of a batch of
   OTs can happen before (and apart from) the group arithmetic. *)
let sender_setup (a : Scalar.t) : sender_state * sender_setup =
  (* a·A = a²·G: a fixed-base multiplication, once per sender *)
  ({ a; a_a = Point.mul_base (Scalar.mul a a) }, { s_pub = Point.mul_base a })

type receiver_state = { shared : Point.t }
type receiver_msg = { r_pub : Point.t }

let derive_key (tag : string) (p : Point.t) (len : int) : string =
  Larch_hash.Hkdf.derive ~ikm:(Point.encode p) ~info:("larch-ot" ^ tag) ~len ()

(* Receiver with choice bit [choice]: B = g^b (choice 0) or A·g^b (choice 1). *)
let receiver_choose ~(setup : sender_setup) ~(choice : int) (b : Scalar.t) :
    receiver_state * receiver_msg =
  let gb = Point.mul_base b in
  let r_pub = if choice land 1 = 0 then gb else Point.add setup.s_pub gb in
  ({ shared = Point.mul b setup.s_pub }, { r_pub })

(* Sender derives both pads: k0 = H(B^a), k1 = H((B/A)^a) = H(B^a / A^a),
   so one variable-base multiplication per OT. *)
let sender_keys ~(state : sender_state) ~(msg : receiver_msg) ~(key_len : int) : string * string
    =
  let ab = Point.mul state.a msg.r_pub in
  (derive_key "k" ab key_len, derive_key "k" (Point.sub ab state.a_a) key_len)

(* Convenience: complete OT of two equal-length messages. *)
type sender_payload = { e0 : string; e1 : string }

let sender_encrypt ~(state : sender_state) ~(msg : receiver_msg) ~(m0 : string) ~(m1 : string) :
    sender_payload =
  if String.length m0 <> String.length m1 then invalid_arg "Ot.sender_encrypt: length mismatch";
  let len = String.length m0 in
  let k0, k1 = sender_keys ~state ~msg ~key_len:len in
  { e0 = Larch_util.Bytesx.xor m0 k0; e1 = Larch_util.Bytesx.xor m1 k1 }

let receiver_recover ~(state : receiver_state) ~(choice : int) (p : sender_payload) : string =
  let c = if choice land 1 = 0 then p.e0 else p.e1 in
  Larch_util.Bytesx.xor c (derive_key "k" state.shared (String.length c))

(* Two-party Schnorr signing without presignatures (§3.3 "Benefits of
   future support for Schnorr-based signing", §9 FIDO improvements).

   If FIDO supported Schnorr/EdDSA-style signatures, larch's signing step
   would collapse to two rounds with no preprocessing: the parties hold
   additive key shares x (log) and y (client), jointly sample R = g^(r0+r1)
   with a commit-reveal on the log's half to prevent nonce bias, and reply
   with partial responses s_i = r_i + c·sk_i for c = H(R ‖ m).  The
   challenge hash deliberately omits the public key, which the log must
   not learn (key-prefixing would link relying parties).

   The ablation bench compares this against the ECDSA-with-presignatures
   protocol. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
open Larch_bignum

type signature = { r_point : Point.t; s : Scalar.t }

let challenge ~(r_point : Point.t) ~(digest : string) : Scalar.t =
  Scalar.of_nat
    (Nat.of_bytes_be (Larch_hash.Sha256.digest_list [ "larch-schnorr"; Point.encode r_point; digest ]))

let verify ~(pk : Point.t) ~(digest : string) (sg : signature) : bool =
  let c = challenge ~r_point:sg.r_point ~digest in
  Point.equal (Point.mul_base sg.s) (Point.add sg.r_point (Point.mul c pk))

(* Batch verification: Schnorr signatures carry the full nonce point, so
   — unlike ECDSA — the textbook random-linear-combination check applies
   directly.  With per-item weights aᵢ from a DRBG keyed on the batch:
       (Σᵢ aᵢ·sᵢ) · G  −  Σᵢ aᵢ · Rᵢ  −  Σᵢ (aᵢ·cᵢ) · pkᵢ  =  O,
   one multi-scalar sum ([Point.multi_mul]) for the whole batch.  On failure
   each signature is re-checked individually, so the accept set is
   exactly {!verify}'s. *)
let verify_batch (items : (Point.t * string * signature) list) : bool array =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n false in
  let fallback () =
    Array.iteri
      (fun i (pk, digest, sg) -> results.(i) <- verify ~pk ~digest sg)
      items;
    results
  in
  if n <= 1 then fallback ()
  else begin
    let sound =
      Array.for_all
        (fun (pk, _, sg) ->
          Point.is_on_curve pk
          && (not (Point.is_infinity pk))
          && Point.is_on_curve sg.r_point)
        items
    in
    if not sound then fallback ()
    else begin
      let transcript = Buffer.create (n * 128) in
      Buffer.add_string transcript "schnorr-batch-v1";
      Array.iter
        (fun (pk, digest, sg) ->
          Buffer.add_string transcript (Point.encode pk);
          Buffer.add_string transcript digest;
          Buffer.add_string transcript (Point.encode sg.r_point);
          Buffer.add_string transcript (Scalar.to_bytes_be sg.s))
        items;
      let drbg =
        Larch_hash.Drbg.create
          ~entropy:(Larch_hash.Sha256.digest (Buffer.contents transcript))
      in
      let weight () =
        let rec draw () =
          let w = Scalar.of_nat (Nat.of_bytes_be (Larch_hash.Drbg.generate drbg 16)) in
          if Nat.is_zero w then draw () else w
        in
        draw ()
      in
      let g_coeff = ref Scalar.zero in
      let terms = ref [] in
      Array.iter
        (fun (pk, digest, sg) ->
          let c = challenge ~r_point:sg.r_point ~digest in
          let a = weight () in
          let neg_a = Scalar.sub Scalar.zero a in
          g_coeff := Scalar.add !g_coeff (Scalar.mul a sg.s);
          terms := (neg_a, sg.r_point) :: (Scalar.mul neg_a c, pk) :: !terms)
        items;
      let combined =
        Point.multi_mul (Array.of_list ((!g_coeff, Point.g) :: !terms))
      in
      if Point.is_infinity combined then begin
        Array.fill results 0 n true;
        results
      end
      else fallback ()
    end
  end

(* --- the two-party protocol --- *)

type log_round1 = { commitment : string } (* H(R0 ‖ nonce) *)
type log_state = { r0 : Scalar.t; r0_pub : Point.t; nonce : string }

let log_round1 ~(rand_bytes : int -> string) : log_state * log_round1 =
  let r0 = Scalar.random_nonzero ~rand_bytes in
  let r0_pub = Point.mul_base r0 in
  let nonce = rand_bytes 16 in
  let commitment = Larch_hash.Sha256.digest_list [ "schnorr-R0"; Point.encode r0_pub; nonce ] in
  ({ r0; r0_pub; nonce }, { commitment })

type client_round = { r1_pub : Point.t }
type client_state = { r1 : Scalar.t; seen_commitment : string }

let client_round ~(commitment : log_round1) ~(rand_bytes : int -> string) :
    client_state * client_round =
  let r1 = Scalar.random_nonzero ~rand_bytes in
  ({ r1; seen_commitment = commitment.commitment }, { r1_pub = Point.mul_base r1 })

type log_round2 = { r0_pub : Point.t; nonce : string; s0 : Scalar.t }

let log_round2 (st : log_state) ~(client : client_round) ~(sk0 : Scalar.t) ~(digest : string) :
    log_round2 =
  let r_point = Point.add st.r0_pub client.r1_pub in
  let c = challenge ~r_point ~digest in
  { r0_pub = st.r0_pub; nonce = st.nonce; s0 = Scalar.add st.r0 (Scalar.mul c sk0) }

(* The client checks the commitment opening, then completes the signature. *)
let client_finish (st : client_state) ~(log_msg : log_round2) ~(sk1 : Scalar.t)
    ~(digest : string) : signature option =
  let expected =
    Larch_hash.Sha256.digest_list [ "schnorr-R0"; Point.encode log_msg.r0_pub; log_msg.nonce ]
  in
  if not (Larch_util.Bytesx.ct_equal expected st.seen_commitment) then None
  else begin
    let r_point = Point.add log_msg.r0_pub (Point.mul_base st.r1) in
    let c = challenge ~r_point ~digest in
    let s = Scalar.add log_msg.s0 (Scalar.add st.r1 (Scalar.mul c sk1)) in
    Some { r_point; s }
  end

(* wire sizes for the bench: commitment 32 + R1 33 + (R0 33 + nonce 16 + s0 32) *)
let wire_bytes = 32 + 33 + (33 + 16 + 32)

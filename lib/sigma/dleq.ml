(* Chaum–Pedersen proof of discrete-log equality: log_g A = log_h B.

   A log server attaches a DLEQ proof to its password response h = c₂^k,
   demonstrating that it exponentiated with the same key k it registered
   as K = g^k — so a faulty log cannot silently hand the client a wrong
   password share. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar

type proof = { a1 : Point.t; a2 : Point.t; z : Scalar.t }

let transcript ~tag ~base1 ~base2 ~public1 ~public2 ~a1 ~a2 : Scalar.t =
  let t = Transcript.create ("dleq" ^ tag) in
  List.iter
    (fun (label, p) -> Transcript.absorb_point t ~label p)
    [ ("b1", base1); ("b2", base2); ("y1", public1); ("y2", public2); ("a1", a1); ("a2", a2) ];
  Transcript.challenge_scalar t ~label:"c"

(* The prover already holds both publics (the log keeps K = g^k and has
   just computed c₂^k), so it multiplies only its nonce ([Point.mul] takes
   the comb for [g]).  The six transcript points share one field
   inversion. *)
let prove ~(base1 : Point.t) ~(base2 : Point.t) ~(public1 : Point.t) ~(public2 : Point.t)
    ~(secret : Scalar.t) ~(tag : string) ~(rand_bytes : int -> string) : proof =
  Larch_obs.Trace.with_span "dleq.prove" @@ fun () ->
  let k = Scalar.random_nonzero ~rand_bytes in
  match
    Point.normalize_batch [| base1; base2; public1; public2; Point.mul k base1; Point.mul k base2 |]
  with
  | [| base1; base2; public1; public2; a1; a2 |] ->
      let c = transcript ~tag ~base1 ~base2 ~public1 ~public2 ~a1 ~a2 in
      { a1; a2; z = Scalar.add k (Scalar.mul c secret) }
  | _ -> assert false

(* z·bᵢ = aᵢ + c·yᵢ, each checked as the exact sum aᵢ + c·yᵢ − z·bᵢ = ∞. *)
let verify ~(base1 : Point.t) ~(base2 : Point.t) ~(public1 : Point.t) ~(public2 : Point.t)
    ~(tag : string) (p : proof) : bool =
  Larch_obs.Trace.with_span "dleq.verify" @@ fun () ->
  let c = transcript ~tag ~base1 ~base2 ~public1 ~public2 ~a1:p.a1 ~a2:p.a2 in
  let vanishes a y b =
    Point.is_infinity (Point.multi_mul [| (Scalar.one, a); (c, y); (Scalar.neg p.z, b) |])
  in
  vanishes p.a1 public1 base1 && vanishes p.a2 public2 base2

let encode (p : proof) : string =
  Point.encode_compressed p.a1 ^ Point.encode_compressed p.a2 ^ Scalar.to_bytes_be p.z

let decode (s : string) : proof option =
  if String.length s <> 98 then None
  else
    match
      ( Point.decode_compressed (String.sub s 0 33),
        Point.decode_compressed (String.sub s 33 33) )
    with
    | Some a1, Some a2 -> Some { a1; a2; z = Scalar.of_bytes_be (String.sub s 66 32) }
    | _ -> None

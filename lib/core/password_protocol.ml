(* Larch_PW: split-secret authentication for passwords (§5, Appendix C).

   The password for relying party id is pw_id = k_id · Hash(id)^k ∈ G,
   where k_id is a per-party client secret and k is the log's per-client
   Diffie-Hellman key.  During authentication the client sends an ElGamal
   encryption of Hash(id) under its own archive public key X = g^x plus two
   Groth–Kohlweiss proofs that the ciphertext encrypts the hash of one of
   the registered identifiers; the log stores the ciphertext as the
   encrypted log record and replies with c₂^k.

   This module implements the algorithms of Figure 11 verbatim; state and
   message routing live in [Client] and [Log_service]. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Gk15 = Larch_sigma.Gk15
module Pedersen = Larch_sigma.Pedersen
module Wire = Larch_net.Wire

let id_len = 16 (* id ←$ {0,1}^128, as in the paper *)

(* --- Step 1: enrollment --- *)

let client_gen ~(rand_bytes : int -> string) : Scalar.t * Point.t = Point.random ~rand_bytes
let log_gen ~(rand_bytes : int -> string) : Scalar.t * Point.t = Point.random ~rand_bytes

(* --- Step 2: registration --- *)

let client_register ~(rand_bytes : int -> string) : string * Point.t =
  let id = rand_bytes id_len in
  let k_id = Point.mul_base (Scalar.random_nonzero ~rand_bytes) in
  (id, k_id)

let log_register ~(log_sk : Scalar.t) ~(id : string) : Point.t =
  Point.mul log_sk (Larch_ec.Hash_to_curve.hash id)

let finish_register ~(k_id : Point.t) ~(y : Point.t) : Point.t = Point.add k_id y

(* Importing a legacy password pw: k_id = pw · (Hash(id)^k)⁻¹. *)
let import_legacy ~(pw : Point.t) ~(y : Point.t) : Point.t = Point.sub pw y

(* Legacy passwords must survive a round trip through the group, so they
   are embedded *invertibly* (Koblitz-style try-and-increment on the
   x-coordinate): x = 0x01 ‖ ctr ‖ len ‖ pw ‖ 0-padding.  Passwords
   generated by larch are random group elements and are rendered as a
   derived high-entropy string instead. *)

module Fe = Larch_ec.P256.Fe

let max_legacy_len = 28

let embed_password (pw : string) : Point.t =
  if String.length pw > max_legacy_len then invalid_arg "Password_protocol.embed_password: too long";
  let rec attempt ctr =
    if ctr > 255 then failwith "embed_password: no embedding found (improbable)"
    else begin
      let x_bytes = Bytes.make 32 '\000' in
      Bytes.set x_bytes 0 '\x01';
      Bytes.set x_bytes 1 (Char.chr ctr);
      Bytes.set x_bytes 2 (Char.chr (String.length pw));
      Bytes.blit_string pw 0 x_bytes 3 (String.length pw);
      let x = Fe.of_bytes_be (Bytes.unsafe_to_string x_bytes) in
      let rhs = Fe.add (Fe.add (Fe.mul (Fe.sqr x) x) (Fe.mul Larch_ec.P256.a x)) (Fe.of_nat Larch_ec.P256.b) in
      match Fe.sqrt rhs with
      | Some y -> Point.of_affine ~x ~y
      | None -> attempt (ctr + 1)
    end
  in
  attempt 0

let extract_password (p : Point.t) : string option =
  match Point.to_affine p with
  | None -> None
  | Some (x, _) ->
      let xb = Larch_bignum.Nat.to_bytes_be ~len:32 x in
      if xb.[0] <> '\x01' then None
      else begin
        let len = Char.code xb.[2] in
        if len > max_legacy_len then None
        else begin
          let pw = String.sub xb 3 len in
          let padding_ok = ref true in
          for i = 3 + len to 31 do
            if xb.[i] <> '\000' then padding_ok := false
          done;
          if !padding_ok then Some pw else None
        end
      end

(* The secret actually typed at the relying party: the legacy string if the
   point is an embedding, otherwise a derived high-entropy password. *)
let password_string (p : Point.t) : string =
  match extract_password p with
  | Some pw -> pw
  | None ->
      "larch1-" ^ Larch_util.Hex.encode (String.sub (Larch_hash.Sha256.digest (Point.encode p)) 0 16)

(* --- Step 3: authentication --- *)

type auth_request = {
  ct : Larch_ec.Elgamal.ciphertext;
  pi1 : Gk15.proof; (* h_i = X^r for some registered i *)
  pi2 : Gk15.proof; (* h_i = c1^x for the same set *)
}

(* h_i = c2 / Hash(id_i), shared by prover and verifier (and by π₁ and π₂),
   batch-normalised so the transcripts absorb them without inversions. *)
let commitment_set ~(c2 : Point.t) ~(ids : string list) : Point.t array =
  Point.normalize_batch
    (Array.of_list (List.map (fun id -> Point.sub c2 (Larch_ec.Hash_to_curve.hash id)) ids))

(* The client knows the discrete log of both proofs' second generator — x
   for X, r for c₁ — so its Pedersen keys carry it, and c₂ = Hash(id)·g^(rx)
   is one base-point multiplication. *)
let client_auth ~(idx : int) ~(x : Scalar.t) ~(ids : string list)
    ~(rand_bytes : int -> string) : Scalar.t * auth_request =
  Larch_obs.Trace.with_span "pw.client.prove" @@ fun () ->
  Larch_obs.Trace.add_int "n_ids" (List.length ids);
  let n = List.length ids in
  if idx < 0 || idx >= n then invalid_arg "Password_protocol.client_auth: bad index";
  let r = Scalar.random_nonzero ~rand_bytes in
  let x_pub, c1, c2 =
    match
      Point.normalize_batch
        [| Point.mul_base x; Point.mul_base r;
           Point.add (Larch_ec.Hash_to_curve.hash (List.nth ids idx)) (Point.mul_base (Scalar.mul r x)) |]
    with
    | [| x_pub; c1; c2 |] -> (x_pub, c1, c2)
    | _ -> assert false
  in
  let hs = commitment_set ~c2 ~ids in
  let pi1 =
    Gk15.prove ~key:(Pedersen.make_trapdoor ~h:x_pub ~log_h:x) ~commitments:hs ~index:idx ~opening:r
      ~tag:"larch-pw-pi1" ~rand_bytes
  in
  let pi2 =
    Gk15.prove ~key:(Pedersen.make_trapdoor ~h:c1 ~log_h:r) ~commitments:hs ~index:idx ~opening:x
      ~tag:"larch-pw-pi2" ~rand_bytes
  in
  (r, { ct = { Larch_ec.Elgamal.c1; c2 }; pi1; pi2 })

(* Log side: verify both proofs against the registered identifier set; on
   success return c₂^k (the record itself is stored by the caller). *)
let log_auth ~(log_sk : Scalar.t) ~(client_pub : Point.t) ~(ids : string list)
    (req : auth_request) : Point.t option =
  Larch_obs.Trace.with_span "pw.log.verify" @@ fun () ->
  Larch_obs.Trace.add_int "n_ids" (List.length ids);
  let hs = commitment_set ~c2:req.ct.Larch_ec.Elgamal.c2 ~ids in
  let ok =
    Gk15.verify ~key:(Pedersen.make ~h:client_pub) ~commitments:hs ~tag:"larch-pw-pi1" req.pi1
    && Gk15.verify
         ~key:(Pedersen.make ~h:req.ct.Larch_ec.Elgamal.c1)
         ~commitments:hs ~tag:"larch-pw-pi2" req.pi2
  in
  if ok then Some (Point.mul log_sk req.ct.Larch_ec.Elgamal.c2) else None

(* pw = k_id · y · K^(-x·r). *)
let finish_auth ~(x : Scalar.t) ~(log_pub : Point.t) ~(r : Scalar.t) ~(k_id : Point.t)
    ~(y : Point.t) : Point.t =
  Point.add k_id (Point.sub y (Point.mul (Scalar.mul x r) log_pub))

(* --- Step 4: auditing --- *)

let decrypt_record ~(x : Scalar.t) (ct : Larch_ec.Elgamal.ciphertext) : Point.t =
  Larch_ec.Elgamal.decrypt ~sk:x ct

(* --- wire encodings --- *)

let encode_auth_request (r : auth_request) : string =
  Wire.encode (fun w ->
      Wire.bytes w (Larch_ec.Elgamal.encode r.ct);
      Wire.bytes w (Gk15.encode r.pi1);
      Wire.bytes w (Gk15.encode r.pi2))

let decode_auth_request (s : string) : auth_request option =
  match
    Wire.decode s (fun rd ->
        let ct =
          match Larch_ec.Elgamal.decode (Wire.read_bytes rd) with
          | Some ct -> ct
          | None -> raise (Wire.Malformed "ciphertext")
        in
        let pi1 =
          match Gk15.decode (Wire.read_bytes rd) with
          | Some p -> p
          | None -> raise (Wire.Malformed "pi1")
        in
        let pi2 =
          match Gk15.decode (Wire.read_bytes rd) with
          | Some p -> p
          | None -> raise (Wire.Malformed "pi2")
        in
        { ct; pi1; pi2 })
  with
  | Ok r -> Some r
  | Error _ -> None

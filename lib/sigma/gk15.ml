(* Groth–Kohlweiss one-out-of-many proofs ("One-out-of-many proofs: or how
   to leak a secret and spend a coin", EUROCRYPT 2015).

   Statement: given commitments c_0, …, c_{N-1} under Com(m; ρ) = g^m h^ρ,
   the prover knows an index ℓ and randomness r with c_ℓ = Com(0; r) = h^r.

   Larch's password protocol (§5, App. C) instantiates this twice per
   authentication with h = X (the client's ElGamal public key) and h = c₁,
   over c_i = c₂ / Hash(id_i), to show the ciphertext encrypts one of the
   registered relying-party identifiers.  Proof size is O(log N); prover
   and verifier are O(N) group operations.

   Group arithmetic.  The prover's key carries log_g h, so each of its 3m
   commitments is one [Point.mul_base], and each c_d's ρ·h term joins its
   multi-scalar sum as a g term.  The verifier checks each of its 2m+1
   equations as one exact sum [Point.multi_mul [...] = infinity]: Straus
   interleaving at these sizes (n + m + 1 terms for the last equation),
   Pippenger only past [Point.multi_mul_crossover].  No random weights, so
   the accept set is exactly that of checking each equation on its own.
   The 4m proof points are batch-normalised (one field inversion) before
   they are absorbed and encoded. *)

open Larch_bignum
module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Wire = Larch_net.Wire

type proof = {
  n : int; (* padded size, 2^m *)
  c_l : Point.t array; (* m commitments to the bits of ℓ *)
  c_a : Point.t array;
  c_b : Point.t array;
  c_d : Point.t array;
  f : Scalar.t array; (* m responses f_j = ℓ_j ξ + a_j *)
  z_a : Scalar.t array;
  z_b : Scalar.t array;
  z_d : Scalar.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let log2 n =
  let rec go p acc = if p >= n then acc else go (2 * p) (acc + 1) in
  go 1 0

(* Pad the commitment list to a power of two by repeating the last entry;
   the relation "some padded c_i is a commitment to 0" is implied by the
   unpadded relation and vice versa (duplicates add no new openings). *)
let pad (commitments : Point.t array) : Point.t array =
  let n = Array.length commitments in
  let np = next_pow2 n in
  if np = n then commitments
  else Array.init np (fun i -> if i < n then commitments.(i) else commitments.(n - 1))

(* polynomial arithmetic over Z_n, coefficient arrays (index = degree) *)
let poly_mul (p : Scalar.t array) (q : Scalar.t array) : Scalar.t array =
  let r = Array.make (Array.length p + Array.length q - 1) Scalar.zero in
  Array.iteri
    (fun i pi ->
      if not (Nat.is_zero pi) then
        Array.iteri (fun j qj -> r.(i + j) <- Scalar.add r.(i + j) (Scalar.mul pi qj)) q)
    p;
  r

let transcript_init ~(tag : string) ~(key : Pedersen.key) (cs : Point.t array) : Transcript.t =
  let t = Transcript.create ("gk15" ^ tag) in
  Transcript.absorb_point t ~label:"g" Point.g;
  Transcript.absorb_point t ~label:"h" key.Pedersen.h;
  Array.iter (Transcript.absorb_point t ~label:"c") cs;
  t

let absorb_round (t : Transcript.t) (p : proof) : unit =
  Array.iter (Transcript.absorb_point t ~label:"cl") p.c_l;
  Array.iter (Transcript.absorb_point t ~label:"ca") p.c_a;
  Array.iter (Transcript.absorb_point t ~label:"cb") p.c_b;
  Array.iter (Transcript.absorb_point t ~label:"cd") p.c_d

let prove ~(key : Pedersen.key) ~(commitments : Point.t array) ~(index : int)
    ~(opening : Scalar.t) ~(tag : string) ~(rand_bytes : int -> string) : proof =
  if Array.length commitments = 0 then invalid_arg "Gk15.prove: empty commitment set";
  if index < 0 || index >= Array.length commitments then invalid_arg "Gk15.prove: bad index";
  let cs = pad commitments in
  let n = Array.length cs in
  let m = log2 n in
  Larch_obs.Trace.with_span "gk15.prove" @@ fun () ->
  Larch_obs.Trace.add_int "n" n;
  let bit j = (index lsr j) land 1 in
  let rnd () = Scalar.random ~rand_bytes in
  let r_j = Array.init m (fun _ -> rnd ()) in
  let a_j = Array.init m (fun _ -> rnd ()) in
  let s_j = Array.init m (fun _ -> rnd ()) in
  let t_j = Array.init m (fun _ -> rnd ()) in
  let rho = Array.init m (fun _ -> rnd ()) in
  let c_l = Array.init m (fun j -> Pedersen.commit key ~msg:(Scalar.of_int (bit j)) ~rand:r_j.(j)) in
  let c_a = Array.init m (fun j -> Pedersen.commit key ~msg:a_j.(j) ~rand:s_j.(j)) in
  let c_b =
    Array.init m (fun j ->
        let la = if bit j = 1 then a_j.(j) else Scalar.zero in
        Pedersen.commit key ~msg:la ~rand:t_j.(j))
  in
  (* p_i(X) = prod_j f_{j, i_j}(X);  f_{j,1} = a_j + l_j X,  f_{j,0} = -a_j + (1-l_j) X *)
  let coeffs =
    Array.init n (fun i ->
        let p = ref [| Scalar.one |] in
        for j = 0 to m - 1 do
          let f_j =
            if (i lsr j) land 1 = 1 then [| a_j.(j); Scalar.of_int (bit j) |]
            else [| Scalar.neg a_j.(j); Scalar.of_int (1 - bit j) |]
          in
          p := poly_mul !p f_j
        done;
        !p)
  in
  (* c_d_k = Σ_i coeff_{i,k}·c_i + ρ_k·h, the h term as a g term when the
     key carries log_g h *)
  let rho_term k =
    match key.Pedersen.log_h with
    | Some t -> (Scalar.mul t rho.(k), Point.g)
    | None -> (rho.(k), key.Pedersen.h)
  in
  let c_d =
    Array.init m (fun k ->
        Point.multi_mul (Array.append (Array.init n (fun i -> (coeffs.(i).(k), cs.(i)))) [| rho_term k |]))
  in
  let pts = Point.normalize_batch (Array.concat [ c_l; c_a; c_b; c_d ]) in
  let part i = Array.sub pts (i * m) m in
  let partial =
    { n; c_l = part 0; c_a = part 1; c_b = part 2; c_d = part 3; f = [||]; z_a = [||]; z_b = [||];
      z_d = Scalar.zero }
  in
  let t = transcript_init ~tag ~key cs in
  absorb_round t partial;
  let xi = Transcript.challenge_scalar t ~label:"xi" in
  let f = Array.init m (fun j -> Scalar.add (if bit j = 1 then xi else Scalar.zero) a_j.(j)) in
  let z_a = Array.init m (fun j -> Scalar.add (Scalar.mul r_j.(j) xi) s_j.(j)) in
  let z_b = Array.init m (fun j -> Scalar.add (Scalar.mul r_j.(j) (Scalar.sub xi f.(j))) t_j.(j)) in
  let xi_pow = Array.make (m + 1) Scalar.one in
  for k = 1 to m do
    xi_pow.(k) <- Scalar.mul xi_pow.(k - 1) xi
  done;
  let sum_rho = ref Scalar.zero in
  for k = 0 to m - 1 do
    sum_rho := Scalar.add !sum_rho (Scalar.mul rho.(k) xi_pow.(k))
  done;
  let z_d = Scalar.sub (Scalar.mul opening xi_pow.(m)) !sum_rho in
  { partial with f; z_a; z_b; z_d }

(* Each equation is checked as Σ kᵢ·Pᵢ = infinity, with the lone point that
   the paper's form has on one side moved over at coefficient +1:
     xi·c_l_j + c_a_j − f_j·g − z_a_j·h = ∞                      (m of these)
     (xi − f_j)·c_l_j + c_b_j − z_b_j·h = ∞                        (m of these)
     Σ_i w_i·c_i − Σ_k xi^k·c_d_k − z_d·h = ∞,  w_i = Π_j (i_j ? f_j : xi − f_j) *)
let verify ~(key : Pedersen.key) ~(commitments : Point.t array) ~(tag : string) (p : proof) :
    bool =
  Array.length commitments > 0
  &&
  let cs = pad commitments in
  let n = Array.length cs in
  let m = log2 n in
  Larch_obs.Trace.with_span "gk15.verify" @@ fun () ->
  Larch_obs.Trace.add_int "n" n;
  if p.n <> n || Array.length p.c_l <> m || Array.length p.c_a <> m || Array.length p.c_b <> m
     || Array.length p.c_d <> m || Array.length p.f <> m || Array.length p.z_a <> m
     || Array.length p.z_b <> m
  then false
  else begin
    let t = transcript_init ~tag ~key cs in
    absorb_round t p;
    let xi = Transcript.challenge_scalar t ~label:"xi" in
    let h = key.Pedersen.h in
    let vanishes terms = Point.is_infinity (Point.multi_mul terms) in
    let eq1 j =
      vanishes
        [| (xi, p.c_l.(j)); (Scalar.one, p.c_a.(j)); (Scalar.neg p.f.(j), Point.g);
           (Scalar.neg p.z_a.(j), h) |]
    in
    let eq2 j =
      vanishes [| (Scalar.sub xi p.f.(j), p.c_l.(j)); (Scalar.one, p.c_b.(j)); (Scalar.neg p.z_b.(j), h) |]
    in
    let eq3 () =
      let xi_minus_f = Array.map (fun fj -> Scalar.sub xi fj) p.f in
      let terms_c =
        Array.init n (fun i ->
            let w = ref Scalar.one in
            for j = 0 to m - 1 do
              w := Scalar.mul !w (if (i lsr j) land 1 = 1 then p.f.(j) else xi_minus_f.(j))
            done;
            (!w, cs.(i)))
      in
      let xi_pow = Array.make m Scalar.one in
      for k = 1 to m - 1 do
        xi_pow.(k) <- Scalar.mul xi_pow.(k - 1) xi
      done;
      let terms_d = Array.init m (fun k -> (Scalar.neg xi_pow.(k), p.c_d.(k))) in
      vanishes (Array.concat [ terms_c; terms_d; [| (Scalar.neg p.z_d, h) |] ])
    in
    let rec all j eq = j >= m || (eq j && all (j + 1) eq) in
    all 0 eq1 && all 0 eq2 && eq3 ()
  end

(* --- serialization --- *)

let encode (p : proof) : string =
  Wire.encode (fun w ->
      Wire.u32 w p.n;
      let pts ps = Wire.list w (fun w pt -> Wire.fixed w (Point.encode_compressed pt)) (Array.to_list ps) in
      pts p.c_l;
      pts p.c_a;
      pts p.c_b;
      pts p.c_d;
      let scs ss = Wire.list w (fun w s -> Wire.fixed w (Scalar.to_bytes_be s)) (Array.to_list ss) in
      scs p.f;
      scs p.z_a;
      scs p.z_b;
      Wire.fixed w (Scalar.to_bytes_be p.z_d))

let decode (s : string) : proof option =
  let read_point r =
    match Point.decode_compressed (Wire.read_fixed r 33) with
    | Some p -> p
    | None -> raise (Wire.Malformed "bad point")
  in
  let read_scalar r = Scalar.of_bytes_be (Wire.read_fixed r 32) in
  match
    Wire.decode s (fun r ->
        let n = Wire.read_u32 r in
        let pts () = Array.of_list (Wire.read_list r read_point) in
        let c_l = pts () in
        let c_a = pts () in
        let c_b = pts () in
        let c_d = pts () in
        let scs () = Array.of_list (Wire.read_list r read_scalar) in
        let f = scs () in
        let z_a = scs () in
        let z_b = scs () in
        let z_d = read_scalar r in
        { n; c_l; c_a; c_b; c_d; f; z_a; z_b; z_d })
  with
  | Ok p -> Some p
  | Error _ -> None

let size_bytes (p : proof) : int = String.length (encode p)

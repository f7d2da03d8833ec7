(* Sigma-protocol tests: Schnorr, DLEQ, Pedersen, multi-exponentiation, and
   the Groth–Kohlweiss one-out-of-many proof used by larch passwords. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Fe = Larch_ec.P256.Fe
module Nat = Larch_bignum.Nat
open Larch_sigma

let rand = Larch_hash.Drbg.of_seed "test-sigma"

let schnorr_roundtrip () =
  let x = Scalar.random_nonzero ~rand_bytes:rand in
  let base = Point.g in
  let y = Point.mul x base in
  let p = Schnorr.prove ~base ~secret:x ~tag:"t" ~rand_bytes:rand in
  Alcotest.(check bool) "verifies" true (Schnorr.verify ~base ~public:y ~tag:"t" p);
  Alcotest.(check bool) "wrong tag" false (Schnorr.verify ~base ~public:y ~tag:"u" p);
  Alcotest.(check bool) "wrong public" false
    (Schnorr.verify ~base ~public:(Point.double y) ~tag:"t" p);
  (match Schnorr.decode (Schnorr.encode p) with
  | Some p' -> Alcotest.(check bool) "decode verifies" true (Schnorr.verify ~base ~public:y ~tag:"t" p')
  | None -> Alcotest.fail "decode");
  (* non-generator base *)
  let base2 = Larch_ec.Hash_to_curve.hash "another-base" in
  let y2 = Point.mul x base2 in
  let p2 = Schnorr.prove ~base:base2 ~secret:x ~tag:"t" ~rand_bytes:rand in
  Alcotest.(check bool) "other base verifies" true (Schnorr.verify ~base:base2 ~public:y2 ~tag:"t" p2)

let dleq_roundtrip () =
  let k = Scalar.random_nonzero ~rand_bytes:rand in
  let b1 = Point.g and b2 = Larch_ec.Hash_to_curve.hash "dleq-base" in
  let y1 = Point.mul k b1 and y2 = Point.mul k b2 in
  let p = Dleq.prove ~base1:b1 ~base2:b2 ~public1:y1 ~public2:y2 ~secret:k ~tag:"t" ~rand_bytes:rand in
  Alcotest.(check bool) "verifies" true
    (Dleq.verify ~base1:b1 ~base2:b2 ~public1:y1 ~public2:y2 ~tag:"t" p);
  Alcotest.(check bool) "wrong pair rejected" false
    (Dleq.verify ~base1:b1 ~base2:b2 ~public1:y1 ~public2:(Point.double y2) ~tag:"t" p);
  match Dleq.decode (Dleq.encode p) with
  | Some p' ->
      Alcotest.(check bool) "decode verifies" true
        (Dleq.verify ~base1:b1 ~base2:b2 ~public1:y1 ~public2:y2 ~tag:"t" p')
  | None -> Alcotest.fail "decode"

let pedersen_binding_smoke () =
  let key = Lazy.force Pedersen.default in
  let m = Scalar.random ~rand_bytes:rand and r = Scalar.random ~rand_bytes:rand in
  let c = Pedersen.commit key ~msg:m ~rand:r in
  Alcotest.(check bool) "opens" true (Pedersen.verify key ~commitment:c ~msg:m ~rand:r);
  Alcotest.(check bool) "wrong msg" false
    (Pedersen.verify key ~commitment:c ~msg:(Scalar.add m Scalar.one) ~rand:r)

(* --- group arithmetic: differential tests against naive sums --- *)

(* Reference scalar multiplication: plain double-and-add over the scalar's
   bits with [Point.add] and [Point.double].  It shares no code with the
   wNAF recoding, the Straus and Pippenger sums or the comb, so the oracles
   built on it check those paths rather than restate them. *)
let ref_mul k p =
  let acc = ref Point.infinity in
  for b = 255 downto 0 do
    acc := Point.double !acc;
    if Nat.test_bit k b then acc := Point.add !acc p
  done;
  !acc

let naive_sum pairs =
  Array.fold_left (fun acc (k, p) -> Point.add acc (ref_mul k p)) Point.infinity pairs

let check_multi_mul name pairs =
  Alcotest.(check bool) name true (Point.equal (naive_sum pairs) (Point.multi_mul pairs))

let rand_point () = Point.mul_base (Scalar.random_nonzero ~rand_bytes:rand)
let random_pairs n = Array.init n (fun _ -> (Scalar.random ~rand_bytes:rand, rand_point ()))

(* Random terms salted with the edge cases that drive the addition law's
   H = 0 branches and the algorithms' skip paths: zero scalars, the scalar
   n − 1, unit scalars, infinity bases, duplicate bases, a base next to its
   negation, and [Point.g] itself (the cached-table lane). *)
let edgy_pairs n =
  let minus_one = Scalar.neg Scalar.one in
  let pairs = random_pairs n in
  Array.iteri
    (fun i (k, p) ->
      match i mod 9 with
      | 1 -> pairs.(i) <- (Scalar.zero, p)
      | 2 -> pairs.(i) <- (minus_one, p)
      | 3 -> pairs.(i) <- (k, Point.infinity)
      | 4 -> pairs.(i) <- (k, snd pairs.(i - 1))
      | 5 -> pairs.(i) <- (k, Point.neg (snd pairs.(i - 1)))
      | 6 -> pairs.(i) <- (k, Point.g)
      | 7 -> pairs.(i) <- (Scalar.one, p)
      | _ -> ())
    pairs;
  pairs

let multi_mul_matches_naive () =
  for n = 0 to 40 do
    check_multi_mul (Printf.sprintf "random n=%d" n) (random_pairs n);
    check_multi_mul (Printf.sprintf "edge cases n=%d" n) (edgy_pairs n)
  done;
  let c = Point.multi_mul_crossover in
  List.iter
    (fun n -> check_multi_mul (Printf.sprintf "across the crossover n=%d" n) (random_pairs n))
    [ c; c + 1 ];
  (* a third of edgy_pairs' terms drop out (zero, infinity, g), so these
     leave ~c + 6 and > 256 live terms: Pippenger at both window widths *)
  List.iter
    (fun n -> check_multi_mul (Printf.sprintf "edge cases past the crossover n=%d" n) (edgy_pairs n))
    [ (3 * c / 2) + 9; (3 * c) + 16 ];
  (* sums that cancel exactly, on both sides of the crossover *)
  List.iter
    (fun n ->
      let half = random_pairs n in
      let cancel = Array.append half (Array.map (fun (k, p) -> (k, Point.neg p)) half) in
      Alcotest.(check bool) (Printf.sprintf "cancels n=%d" (2 * n)) true
        (Point.is_infinity (Point.multi_mul cancel));
      let via_scalars = Array.append half (Array.map (fun (k, p) -> (Scalar.neg k, p)) half) in
      Alcotest.(check bool) (Printf.sprintf "cancels by scalars n=%d" (2 * n)) true
        (Point.is_infinity (Point.multi_mul via_scalars)))
    [ 1; 4; c ];
  (* g terms fold into one lane: g·k + g·(n − k) = infinity *)
  let k = Scalar.random ~rand_bytes:rand in
  Alcotest.(check bool) "g terms fold" true
    (Point.is_infinity (Point.multi_mul [| (k, Point.g); (Scalar.neg k, Point.g) |]));
  check_multi_mul "g only" [| (k, Point.g) |];
  let g_copy = Point.sub (Point.mul_base (Scalar.of_int 2)) Point.g in
  Alcotest.(check bool) "a copy of g" true (Point.equal g_copy Point.g && g_copy != Point.g);
  check_multi_mul "g equal but not physically g" [| (k, g_copy); (Scalar.one, Point.g) |]

let normalize_batch_matches_to_affine () =
  List.iter
    (fun n ->
      let ps =
        Array.init n (fun i ->
            match i mod 4 with
            | 0 -> Point.infinity
            | 1 -> Point.g
            | _ -> rand_point ())
      in
      let ns = Point.normalize_batch ps in
      Alcotest.(check int) "length" n (Array.length ns);
      Array.iteri
        (fun i p ->
          let q = ns.(i) in
          Alcotest.(check bool) (Printf.sprintf "n=%d point %d equal" n i) true (Point.equal p q);
          (match (Point.to_affine p, Point.to_affine q) with
          | None, None -> ()
          | Some (x, y), Some (x', y') ->
              Alcotest.(check bool) "same affine" true (Fe.equal x x' && Fe.equal y y');
              Alcotest.(check bool) "z = 1" true (Nat.is_one q.Point.z)
          | _ -> Alcotest.fail "infinity mismatch");
          Alcotest.(check string) "same encoding" (Point.encode p) (Point.encode q))
        ps)
    [ 0; 1; 2; 5; 12 ];
  let all_inf = [| Point.infinity; Point.infinity |] in
  Alcotest.(check bool) "all infinity" true
    (Array.for_all Point.is_infinity (Point.normalize_batch all_inf))

(* A trapdoor key commits to the same point as a generic one. *)
let trapdoor_commit_prop =
  let scalar =
    QCheck.make ~print:(fun s -> Larch_util.Hex.encode (Scalar.to_bytes_be s))
      QCheck.Gen.(
        map
          (fun (kind, seed) ->
            match kind with
            | 0 -> Scalar.zero
            | 1 -> Scalar.one
            | 2 -> Scalar.neg Scalar.one
            | _ -> Scalar.of_bytes_be (Larch_hash.Sha256.digest (string_of_int seed)))
          (pair (int_bound 6) int))
  in
  QCheck.Test.make ~name:"trapdoor commit = generic commit = naive" ~count:60
    (QCheck.triple scalar scalar scalar) (fun (log_h, msg, r) ->
      let h = Point.mul_base log_h in
      let trap = Pedersen.commit (Pedersen.make_trapdoor ~h ~log_h) ~msg ~rand:r in
      let generic = Pedersen.commit (Pedersen.make ~h) ~msg ~rand:r in
      let naive = Point.add (ref_mul msg Point.g) (ref_mul r h) in
      Point.equal trap generic && Point.equal generic naive)

let gk15_complete n () =
  let key = Pedersen.make ~h:(Larch_ec.Hash_to_curve.hash "gk-h") in
  let index = n / 2 in
  let opening = Scalar.random_nonzero ~rand_bytes:rand in
  let commitments =
    Array.init n (fun i ->
        if i = index then Point.mul opening key.Pedersen.h
        else Point.mul_base (Scalar.random_nonzero ~rand_bytes:rand))
  in
  let p = Gk15.prove ~key ~commitments ~index ~opening ~tag:"t" ~rand_bytes:rand in
  Alcotest.(check bool) "verifies" true (Gk15.verify ~key ~commitments ~tag:"t" p);
  Alcotest.(check bool) "wrong tag rejected" false (Gk15.verify ~key ~commitments ~tag:"u" p);
  (* perturbing the commitment list must break the proof *)
  let bad = Array.copy commitments in
  bad.(0) <- Point.double bad.(0);
  Alcotest.(check bool) "modified set rejected" false (Gk15.verify ~key ~commitments:bad ~tag:"t" p);
  (* decode/encode *)
  match Gk15.decode (Gk15.encode p) with
  | Some p' -> Alcotest.(check bool) "decoded verifies" true (Gk15.verify ~key ~commitments ~tag:"t" p')
  | None -> Alcotest.fail "decode"

let gk15_soundness_no_zero_commitment () =
  (* If no commitment opens to zero, an honest-prover run with a bogus
     opening must fail verification. *)
  let key = Pedersen.make ~h:(Larch_ec.Hash_to_curve.hash "gk-h2") in
  let n = 8 in
  let commitments =
    Array.init n (fun _ -> Point.mul_base (Scalar.random_nonzero ~rand_bytes:rand))
  in
  let p =
    Gk15.prove ~key ~commitments ~index:3 ~opening:(Scalar.random_nonzero ~rand_bytes:rand)
      ~tag:"t" ~rand_bytes:rand
  in
  Alcotest.(check bool) "rejected" false (Gk15.verify ~key ~commitments ~tag:"t" p)

let gk15_tamper () =
  let key = Pedersen.make ~h:(Larch_ec.Hash_to_curve.hash "gk-h3") in
  let n = 16 and index = 5 in
  let opening = Scalar.random_nonzero ~rand_bytes:rand in
  let commitments =
    Array.init n (fun i ->
        if i = index then Point.mul opening key.Pedersen.h
        else Point.mul_base (Scalar.random_nonzero ~rand_bytes:rand))
  in
  let p = Gk15.prove ~key ~commitments ~index ~opening ~tag:"t" ~rand_bytes:rand in
  let tampered = { p with Gk15.z_d = Scalar.add p.Gk15.z_d Scalar.one } in
  Alcotest.(check bool) "tampered z_d rejected" false
    (Gk15.verify ~key ~commitments ~tag:"t" tampered);
  let tampered2 = { p with Gk15.f = Array.map (fun x -> Scalar.add x Scalar.one) p.Gk15.f } in
  Alcotest.(check bool) "tampered f rejected" false
    (Gk15.verify ~key ~commitments ~tag:"t" tampered2)

let gk15_padding () =
  (* non-power-of-two list sizes *)
  List.iter
    (fun n ->
      let key = Pedersen.make ~h:(Larch_ec.Hash_to_curve.hash "gk-h4") in
      let index = n - 1 in
      let opening = Scalar.random_nonzero ~rand_bytes:rand in
      let commitments =
        Array.init n (fun i ->
            if i = index then Point.mul opening key.Pedersen.h
            else Point.mul_base (Scalar.random_nonzero ~rand_bytes:rand))
      in
      let p = Gk15.prove ~key ~commitments ~index ~opening ~tag:"t" ~rand_bytes:rand in
      Alcotest.(check bool) (Printf.sprintf "n=%d verifies" n) true
        (Gk15.verify ~key ~commitments ~tag:"t" p))
    [ 1; 3; 5; 7; 9 ]

(* --- verifier equivalence: the pre-change verifiers as oracles ---

   These are the GK15 and DLEQ verifiers as they stood before the group
   arithmetic was reworked: every exponentiation its own ladder (here the
   double-and-add [ref_mul], so no oracle shares code with [multi_mul]),
   the multi-scalar sum a naive fold, each equation compared with
   [Point.equal].  The production verifiers must agree with them on every
   proof, honest or not. *)

module Old = struct
  let commit (key : Pedersen.key) ~msg ~rand =
    let gm = if Nat.is_zero msg then Point.infinity else ref_mul msg Point.g in
    let hr = if Nat.is_zero rand then Point.infinity else ref_mul rand key.Pedersen.h in
    Point.add gm hr

  let gk15_challenge ~(key : Pedersen.key) ~tag cs (p : Gk15.proof) =
    let t = Transcript.create ("gk15" ^ tag) in
    Transcript.absorb_point t ~label:"g" Point.g;
    Transcript.absorb_point t ~label:"h" key.Pedersen.h;
    Array.iter (Transcript.absorb_point t ~label:"c") cs;
    Array.iter (Transcript.absorb_point t ~label:"cl") p.Gk15.c_l;
    Array.iter (Transcript.absorb_point t ~label:"ca") p.Gk15.c_a;
    Array.iter (Transcript.absorb_point t ~label:"cb") p.Gk15.c_b;
    Array.iter (Transcript.absorb_point t ~label:"cd") p.Gk15.c_d;
    Transcript.challenge_scalar t ~label:"xi"

  (* The verdict of each of the 2m+1 equations (eq1_0…eq1_{m−1},
     eq2_0…eq2_{m−1}, eq3), or [None] when the proof's shape is wrong. *)
  let gk15_equations ~(key : Pedersen.key) ~commitments ~tag (p : Gk15.proof) =
    let cs = Gk15.pad commitments in
    let n = Array.length cs in
    let m = Gk15.log2 n in
    let open Gk15 in
    if p.n <> n || Array.length p.c_l <> m || Array.length p.c_a <> m || Array.length p.c_b <> m
       || Array.length p.c_d <> m || Array.length p.f <> m || Array.length p.z_a <> m
       || Array.length p.z_b <> m
    then None
    else begin
      let xi = gk15_challenge ~key ~tag cs p in
      let eq1 =
        Array.init m (fun j ->
            Point.equal
              (Point.add (ref_mul xi p.c_l.(j)) p.c_a.(j))
              (commit key ~msg:p.f.(j) ~rand:p.z_a.(j)))
      in
      let eq2 =
        Array.init m (fun j ->
            Point.equal
              (Point.add (ref_mul (Scalar.sub xi p.f.(j)) p.c_l.(j)) p.c_b.(j))
              (commit key ~msg:Scalar.zero ~rand:p.z_b.(j)))
      in
      let xi_minus_f = Array.map (fun fj -> Scalar.sub xi fj) p.f in
      let pairs_c =
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
      let pairs_d = Array.init m (fun k -> (Scalar.neg xi_pow.(k), p.c_d.(k))) in
      let lhs = naive_sum (Array.append pairs_c pairs_d) in
      let eq3 = Point.equal lhs (commit key ~msg:Scalar.zero ~rand:p.z_d) in
      Some (Array.concat [ eq1; eq2; [| eq3 |] ])
    end

  let gk15_verify ~key ~commitments ~tag p =
    match gk15_equations ~key ~commitments ~tag p with
    | None -> false
    | Some eqs -> Array.for_all Fun.id eqs

  let dleq_verify ~base1 ~base2 ~public1 ~public2 ~tag (p : Dleq.proof) =
    let t = Transcript.create ("dleq" ^ tag) in
    List.iter
      (fun (label, pt) -> Transcript.absorb_point t ~label pt)
      [ ("b1", base1); ("b2", base2); ("y1", public1); ("y2", public2); ("a1", p.Dleq.a1);
        ("a2", p.Dleq.a2) ];
    let c = Transcript.challenge_scalar t ~label:"c" in
    Point.equal (ref_mul p.Dleq.z base1) (Point.add p.Dleq.a1 (ref_mul c public1))
    && Point.equal (ref_mul p.Dleq.z base2) (Point.add p.Dleq.a2 (ref_mul c public2))
end

let bump a j =
  let a = Array.copy a in
  a.(j) <- Scalar.add a.(j) Scalar.one;
  a

let set a j v =
  let a = Array.copy a in
  a.(j) <- v;
  a

let drop_last a = Array.sub a 0 (max 0 (Array.length a - 1))

(* Every field of [p] mutated in every way that keeps it well-typed: each
   point replaced by its double, its negation, g and infinity; each scalar
   bumped, zeroed and negated; each array shortened and lengthened; n
   moved. *)
let gk15_mutations (p : Gk15.proof) : (string * Gk15.proof) list =
  let open Gk15 in
  let points name get put =
    let a = get p in
    List.concat
      (List.init (Array.length a) (fun j ->
           List.map
             (fun (how, f) -> (Printf.sprintf "%s.(%d) %s" name j how, put (set a j (f a.(j)))))
             [ ("doubled", Point.double); ("negated", Point.neg); ("= g", fun _ -> Point.g);
               ("= infinity", fun _ -> Point.infinity) ]))
    @ [ (name ^ " shortened", put (drop_last a)); (name ^ " lengthened", put (Array.append a [| Point.g |])) ]
  in
  let scalars name get put =
    let a = get p in
    List.concat
      (List.init (Array.length a) (fun j ->
           [ (Printf.sprintf "%s.(%d) bumped" name j, put (bump a j));
             (Printf.sprintf "%s.(%d) zeroed" name j, put (set a j Scalar.zero));
             (Printf.sprintf "%s.(%d) negated" name j, put (set a j (Scalar.neg a.(j)))) ]))
    @ [ (name ^ " shortened", put (drop_last a));
        (name ^ " lengthened", put (Array.append a [| Scalar.one |])) ]
  in
  [ ("n + 1", { p with n = p.n + 1 }); ("n * 2", { p with n = p.n * 2 }); ("n = 0", { p with n = 0 }) ]
  @ points "c_l" (fun p -> p.c_l) (fun c_l -> { p with c_l })
  @ points "c_a" (fun p -> p.c_a) (fun c_a -> { p with c_a })
  @ points "c_b" (fun p -> p.c_b) (fun c_b -> { p with c_b })
  @ points "c_d" (fun p -> p.c_d) (fun c_d -> { p with c_d })
  @ scalars "f" (fun p -> p.f) (fun f -> { p with f })
  @ scalars "z_a" (fun p -> p.z_a) (fun z_a -> { p with z_a })
  @ scalars "z_b" (fun p -> p.z_b) (fun z_b -> { p with z_b })
  @ [ ("z_d bumped", { p with z_d = Scalar.add p.z_d Scalar.one });
      ("z_d zeroed", { p with z_d = Scalar.zero }); ("z_d negated", { p with z_d = Scalar.neg p.z_d }) ]

let gk15_verifier_equivalence () =
  List.iter
    (fun (n, index) ->
      let log_h = Scalar.random_nonzero ~rand_bytes:rand in
      let h = Point.mul_base log_h in
      let key = Pedersen.make ~h in
      let opening = Scalar.random_nonzero ~rand_bytes:rand in
      let commitments =
        Array.init n (fun i ->
            if i = index then Point.mul opening h
            else if i = index + 1 then Point.infinity (* an id whose hash is c₂ *)
            else if i = index + 2 then Point.double h
            else rand_point ())
      in
      if n > index + 3 then commitments.(index + 3) <- commitments.(index + 2);
      let tag = "eq" in
      let p =
        Gk15.prove ~key:(Pedersen.make_trapdoor ~h ~log_h) ~commitments ~index ~opening ~tag
          ~rand_bytes:rand
      in
      let generic = Gk15.prove ~key ~commitments ~index ~opening ~tag ~rand_bytes:rand in
      let agree name ?(key = key) ?(commitments = commitments) q =
        let want = Old.gk15_verify ~key ~commitments ~tag q in
        Alcotest.(check bool) (Printf.sprintf "n=%d %s" n name) want
          (Gk15.verify ~key ~commitments ~tag q);
        want
      in
      Alcotest.(check bool) "honest (trapdoor) accepted" true (agree "honest" p);
      Alcotest.(check bool) "honest (generic key) accepted" true (agree "generic" generic);
      (* break exactly one of the 2m+1 equations: z_a_j appears only in
         eq1_j, z_b_j only in eq2_j, z_d only in eq3, and none of them is
         absorbed before the challenge *)
      let m = Array.length p.Gk15.f in
      let broken =
        List.init m (fun j -> (j, { p with Gk15.z_a = bump p.Gk15.z_a j }))
        @ List.init m (fun j -> (m + j, { p with Gk15.z_b = bump p.Gk15.z_b j }))
        @ [ (2 * m, { p with Gk15.z_d = Scalar.add p.Gk15.z_d Scalar.one }) ]
      in
      List.iter
        (fun (e, q) ->
          (match Old.gk15_equations ~key ~commitments ~tag q with
          | None -> Alcotest.fail "shape"
          | Some eqs ->
              Array.iteri
                (fun i ok ->
                  Alcotest.(check bool) (Printf.sprintf "n=%d only equation %d broken (%d)" n e i)
                    (i <> e) ok)
                eqs);
          Alcotest.(check bool) "rejected" false (agree (Printf.sprintf "equation %d broken" e) q))
        broken;
      List.iter (fun (name, q) -> ignore (agree name q)) (gk15_mutations p);
      (* the statement moved instead of the proof *)
      ignore (agree "h = infinity" ~key:(Pedersen.make ~h:Point.infinity) p);
      ignore (agree "h = g" ~key:(Pedersen.make ~h:Point.g) p);
      ignore (agree "set grown" ~commitments:(Array.append commitments [| Point.g |]) p);
      (* (shrinking n = 1 to the empty set is the case the old verifier
         crashed on; [gk15_empty_set] covers it) *)
      if n > 1 then ignore (agree "set shrunk" ~commitments:(drop_last commitments) p);
      ignore (agree "set entry doubled" ~commitments:(set commitments 0 (Point.double commitments.(0))) p))
    [ (1, 0); (3, 0); (8, 5) ]

let dleq_verifier_equivalence () =
  let k = Scalar.random_nonzero ~rand_bytes:rand in
  let b1 = Point.g and b2 = Larch_ec.Hash_to_curve.hash "dleq-eq" in
  let y1 = Point.mul_base k and y2 = Point.mul k b2 in
  let tag = "eq" in
  let p = Dleq.prove ~base1:b1 ~base2:b2 ~public1:y1 ~public2:y2 ~secret:k ~tag ~rand_bytes:rand in
  let agree name ?(base1 = b1) ?(base2 = b2) ?(public1 = y1) ?(public2 = y2) q =
    let want = Old.dleq_verify ~base1 ~base2 ~public1 ~public2 ~tag q in
    Alcotest.(check bool) name want (Dleq.verify ~base1 ~base2 ~public1 ~public2 ~tag q);
    want
  in
  Alcotest.(check bool) "honest accepted" true (agree "honest" p);
  let other = Dleq.prove ~base1:b2 ~base2:b1 ~public1:y2 ~public2:y1 ~secret:k ~tag ~rand_bytes:rand in
  Alcotest.(check bool) "non-g first base accepted" true
    (agree "swapped bases" ~base1:b2 ~base2:b1 ~public1:y2 ~public2:y1 other);
  let wrong =
    Dleq.prove ~base1:b1 ~base2:b2 ~public1:y1 ~public2:(Point.double y2) ~secret:k ~tag ~rand_bytes:rand
  in
  Alcotest.(check bool) "wrong public rejected" false (agree "wrong public" ~public2:(Point.double y2) wrong);
  let points = [ ("doubled", Point.double); ("negated", Point.neg); ("= g", fun _ -> Point.g);
                 ("= infinity", fun _ -> Point.infinity) ] in
  List.iter
    (fun (how, f) ->
      ignore (agree ("a1 " ^ how) { p with Dleq.a1 = f p.Dleq.a1 });
      ignore (agree ("a2 " ^ how) { p with Dleq.a2 = f p.Dleq.a2 });
      ignore (agree ("public1 " ^ how) ~public1:(f y1) p);
      ignore (agree ("public2 " ^ how) ~public2:(f y2) p);
      ignore (agree ("base2 " ^ how) ~base2:(f b2) p))
    points;
  List.iter
    (fun (how, z) -> ignore (agree ("z " ^ how) { p with Dleq.z }))
    [ ("bumped", Scalar.add p.Dleq.z Scalar.one); ("zeroed", Scalar.zero); ("negated", Scalar.neg p.Dleq.z) ]

(* Regression: an empty commitment set used to make [pad] read index −1. *)
let gk15_empty_set () =
  let key = Pedersen.make ~h:(Larch_ec.Hash_to_curve.hash "gk-empty") in
  let opening = Scalar.random_nonzero ~rand_bytes:rand in
  let commitments = [| Point.mul opening key.Pedersen.h |] in
  let p = Gk15.prove ~key ~commitments ~index:0 ~opening ~tag:"t" ~rand_bytes:rand in
  Alcotest.(check bool) "verify against no commitments" false
    (Gk15.verify ~key ~commitments:[||] ~tag:"t" p);
  Alcotest.check_raises "prove over no commitments"
    (Invalid_argument "Gk15.prove: empty commitment set") (fun () ->
      ignore (Gk15.prove ~key ~commitments:[||] ~index:0 ~opening ~tag:"t" ~rand_bytes:rand))

let transcript_determinism () =
  let mk () =
    let t = Transcript.create "d" in
    Transcript.absorb t ~label:"a" "hello";
    Transcript.absorb t ~label:"b" "world";
    Transcript.challenge_scalar t ~label:"c"
  in
  Alcotest.(check bool) "deterministic" true (Scalar.equal (mk ()) (mk ()));
  let t2 = Transcript.create "d" in
  (* label/data boundary confusion must change the challenge *)
  Transcript.absorb t2 ~label:"ah" "ello";
  Transcript.absorb t2 ~label:"b" "world";
  Alcotest.(check bool) "boundary-sensitive" false
    (Scalar.equal (mk ()) (Transcript.challenge_scalar t2 ~label:"c"))

let () =
  Alcotest.run "sigma"
    [
      ( "sigma",
        [
          Alcotest.test_case "transcript" `Quick transcript_determinism;
          Alcotest.test_case "schnorr" `Quick schnorr_roundtrip;
          Alcotest.test_case "dleq" `Quick dleq_roundtrip;
          Alcotest.test_case "pedersen" `Quick pedersen_binding_smoke;
          Alcotest.test_case "multi_mul" `Quick multi_mul_matches_naive;
          Alcotest.test_case "normalize_batch" `Quick normalize_batch_matches_to_affine;
          QCheck_alcotest.to_alcotest trapdoor_commit_prop;
          Alcotest.test_case "dleq = pre-change verifier" `Quick dleq_verifier_equivalence;
        ] );
      ( "gk15",
        [
          Alcotest.test_case "complete n=8" `Quick (gk15_complete 8);
          Alcotest.test_case "complete n=32" `Quick (gk15_complete 32);
          Alcotest.test_case "soundness" `Quick gk15_soundness_no_zero_commitment;
          Alcotest.test_case "tamper" `Quick gk15_tamper;
          Alcotest.test_case "padding" `Quick gk15_padding;
          Alcotest.test_case "empty set" `Quick gk15_empty_set;
          Alcotest.test_case "= pre-change verifier" `Quick gk15_verifier_equivalence;
        ] );
    ]

(* Specialized arithmetic for the P-256 base field Z_p,
   p = 2^256 - 2^224 + 2^192 + 2^96 - 1.

   The generic [Modarith] backend pays for its generality on every
   operation: variable-length [Nat.t] heap arrays, several intermediate
   allocations per multiplication, and Barrett reduction shaped like
   generic division.  NIST chose p as a Solinas prime precisely so that
   reduction is a handful of shifted additions; this module exploits that.

   Representation: a field element is a flat [int array] of exactly
   [nlimbs] = 10 limbs in base 2^26, little-endian — the same limb base and
   order as [Nat.t], just fixed-length and unnormalized.  Every kernel
   output is canonical (each limb < 2^26, value < p), so converting to and
   from [Nat.t] is a length check plus at most one 10-int copy.

   Kernels are in-place ([mul_into], [sqr_into], …): the destination is a
   caller-owned limb array and the only heap traffic in steady state is the
   caller's scratch, so scalar-multiplication loops run allocation-free.
   Multiplication computes a 20-limb column product, repacks it into
   sixteen 32-bit words, folds them with the NIST/Solinas term sums
   (s1 + 2s2 + 2s3 + s4 + s5 - s6 - s7 - s8 - s9, offset by +4p to stay
   non-negative), folds the ≥2^256 overflow twice via
   2^256 ≡ 2^224 - 2^192 - 2^96 + 1, and finishes with one conditional
   subtraction of p.  Everything stays inside OCaml's 63-bit native ints.

   The scalar field Z_n keeps the generic Barrett backend ([P256.Scalar]),
   which doubles as the differential-testing oracle for this module (see
   test/test_fe256.ml). *)

open Larch_bignum

let nlimbs = 10
let wide_limbs = 20
let base_bits = Nat.base_bits
let mask = (1 lsl base_bits) - 1
let m32 = 0xFFFFFFFF

let p_nat = Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"

let pad (a : Nat.t) : int array =
  let r = Array.make nlimbs 0 in
  Array.blit a 0 r 0 (Array.length a);
  r

let p_limbs = pad p_nat

(* 4p as nine 32-bit words (little-endian); added into the Solinas term sum
   so the pre-fold value is non-negative, which keeps the overflow folds to
   exactly two rounds. *)
let four_p_words =
  let fp = Nat.mul p_nat (Nat.of_int 4) in
  let b = Nat.to_bytes_be ~len:36 fp in
  Array.init 9 (fun j ->
      let o = 36 - (4 * j) - 4 in
      (Char.code b.[o] lsl 24)
      lor (Char.code b.[o + 1] lsl 16)
      lor (Char.code b.[o + 2] lsl 8)
      lor Char.code b.[o + 3])

(* The predicates below are plain loops over local refs, which compile to
   registers; a local recursive closure would be heap-allocated on every
   call (no flambda), and these run several times per point addition. *)
let is_zero (a : int array) : bool =
  let acc = ref 0 in
  for i = 0 to nlimbs - 1 do
    acc := !acc lor Array.unsafe_get a i
  done;
  !acc = 0

let copy_into (dst : int array) (src : int array) = Array.blit src 0 dst 0 nlimbs
let set_zero (a : int array) = Array.fill a 0 nlimbs 0

let equal_limbs (a : int array) (b : int array) : bool =
  let acc = ref 0 in
  for i = 0 to nlimbs - 1 do
    acc := !acc lor (Array.unsafe_get a i lxor Array.unsafe_get b i)
  done;
  !acc = 0

let geq_p (a : int array) : bool =
  let i = ref (nlimbs - 1) in
  while !i >= 0 && Array.unsafe_get a !i = Array.unsafe_get p_limbs !i do
    decr i
  done;
  !i < 0 || Array.unsafe_get a !i > Array.unsafe_get p_limbs !i

let sub_p_in_place (a : int array) =
  let borrow = ref 0 in
  for i = 0 to nlimbs - 1 do
    let t = a.(i) - p_limbs.(i) - !borrow in
    if t < 0 then begin
      a.(i) <- t + (1 lsl base_bits);
      borrow := 1
    end
    else begin
      a.(i) <- t;
      borrow := 0
    end
  done

let cond_sub_p (a : int array) = if geq_p a then sub_p_in_place a

(* r <- a + b mod p.  r may alias a or b. *)
let add_into (r : int array) (a : int array) (b : int array) =
  let carry = ref 0 in
  for i = 0 to nlimbs - 1 do
    let t = Array.unsafe_get a i + Array.unsafe_get b i + !carry in
    Array.unsafe_set r i (t land mask);
    carry := t lsr base_bits
  done;
  (* a + b < 2p < 2^257 fits the 10 limbs, so the final carry is 0 *)
  cond_sub_p r

(* r <- a - b mod p.  r may alias a or b. *)
let sub_into (r : int array) (a : int array) (b : int array) =
  let borrow = ref 0 in
  for i = 0 to nlimbs - 1 do
    let t = Array.unsafe_get a i - Array.unsafe_get b i - !borrow in
    if t < 0 then begin
      Array.unsafe_set r i (t + (1 lsl base_bits));
      borrow := 1
    end
    else begin
      Array.unsafe_set r i t;
      borrow := 0
    end
  done;
  if !borrow = 1 then begin
    (* a < b: the limbwise result is a - b + 2^260; adding p produces a
       final carry that cancels the borrow, leaving a - b + p in [1, p). *)
    let carry = ref 0 in
    for i = 0 to nlimbs - 1 do
      let t = Array.unsafe_get r i + p_limbs.(i) + !carry in
      Array.unsafe_set r i (t land mask);
      carry := t lsr base_bits
    done
  end

(* r <- -a mod p.  r may alias a. *)
let neg_into (r : int array) (a : int array) =
  if is_zero a then set_zero r
  else begin
    let borrow = ref 0 in
    for i = 0 to nlimbs - 1 do
      let t = p_limbs.(i) - a.(i) - !borrow in
      if t < 0 then begin
        r.(i) <- t + (1 lsl base_bits);
        borrow := 1
      end
      else begin
        r.(i) <- t;
        borrow := 0
      end
    done
  end

(* Schoolbook product, fully unrolled (product scanning by columns with
   on-the-fly carry normalization).  Column sums stay below
   10*(2^26-1)^2 + 2^30 < 2^56, inside the native int.  The product of two
   canonical elements is < p^2 < 2^512, so the carry out of column 18 fits
   limb 19 (bits 494..512 < 2^18). *)
let mul_wide (wide : int array) (a : int array) (b : int array) =
  let a0 = Array.unsafe_get a 0 in
  let a1 = Array.unsafe_get a 1 in
  let a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 in
  let a4 = Array.unsafe_get a 4 in
  let a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 in
  let a7 = Array.unsafe_get a 7 in
  let a8 = Array.unsafe_get a 8 in
  let a9 = Array.unsafe_get a 9 in
  let b0 = Array.unsafe_get b 0 in
  let b1 = Array.unsafe_get b 1 in
  let b2 = Array.unsafe_get b 2 in
  let b3 = Array.unsafe_get b 3 in
  let b4 = Array.unsafe_get b 4 in
  let b5 = Array.unsafe_get b 5 in
  let b6 = Array.unsafe_get b 6 in
  let b7 = Array.unsafe_get b 7 in
  let b8 = Array.unsafe_get b 8 in
  let b9 = Array.unsafe_get b 9 in
  let t = (a0 * b0) in
  Array.unsafe_set wide 0 (t land mask);
  let t = (t lsr base_bits) + (a0 * b1) + (a1 * b0) in
  Array.unsafe_set wide 1 (t land mask);
  let t = (t lsr base_bits) + (a0 * b2) + (a1 * b1) + (a2 * b0) in
  Array.unsafe_set wide 2 (t land mask);
  let t = (t lsr base_bits) + (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0) in
  Array.unsafe_set wide 3 (t land mask);
  let t = (t lsr base_bits) + (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0) in
  Array.unsafe_set wide 4 (t land mask);
  let t = (t lsr base_bits) + (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0) in
  Array.unsafe_set wide 5 (t land mask);
  let t = (t lsr base_bits) + (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1) + (a6 * b0) in
  Array.unsafe_set wide 6 (t land mask);
  let t = (t lsr base_bits) + (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3) + (a5 * b2) + (a6 * b1) + (a7 * b0) in
  Array.unsafe_set wide 7 (t land mask);
  let t = (t lsr base_bits) + (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4) + (a5 * b3) + (a6 * b2) + (a7 * b1) + (a8 * b0) in
  Array.unsafe_set wide 8 (t land mask);
  let t = (t lsr base_bits) + (a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5) + (a5 * b4) + (a6 * b3) + (a7 * b2) + (a8 * b1) + (a9 * b0) in
  Array.unsafe_set wide 9 (t land mask);
  let t = (t lsr base_bits) + (a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4) + (a7 * b3) + (a8 * b2) + (a9 * b1) in
  Array.unsafe_set wide 10 (t land mask);
  let t = (t lsr base_bits) + (a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4) + (a8 * b3) + (a9 * b2) in
  Array.unsafe_set wide 11 (t land mask);
  let t = (t lsr base_bits) + (a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4) + (a9 * b3) in
  Array.unsafe_set wide 12 (t land mask);
  let t = (t lsr base_bits) + (a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) + (a9 * b4) in
  Array.unsafe_set wide 13 (t land mask);
  let t = (t lsr base_bits) + (a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5) in
  Array.unsafe_set wide 14 (t land mask);
  let t = (t lsr base_bits) + (a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6) in
  Array.unsafe_set wide 15 (t land mask);
  let t = (t lsr base_bits) + (a7 * b9) + (a8 * b8) + (a9 * b7) in
  Array.unsafe_set wide 16 (t land mask);
  let t = (t lsr base_bits) + (a8 * b9) + (a9 * b8) in
  Array.unsafe_set wide 17 (t land mask);
  let t = (t lsr base_bits) + (a9 * b9) in
  Array.unsafe_set wide 18 (t land mask);
  let t = t lsr base_bits in
  Array.unsafe_set wide 19 t

(* Squaring, same shape: off-diagonal products counted once and doubled. *)
let sqr_wide (wide : int array) (a : int array) =
  let a0 = Array.unsafe_get a 0 in
  let a1 = Array.unsafe_get a 1 in
  let a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 in
  let a4 = Array.unsafe_get a 4 in
  let a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 in
  let a7 = Array.unsafe_get a 7 in
  let a8 = Array.unsafe_get a 8 in
  let a9 = Array.unsafe_get a 9 in
  let t = (a0 * a0) in
  Array.unsafe_set wide 0 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a1))) in
  Array.unsafe_set wide 1 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a2))) + (a1 * a1) in
  Array.unsafe_set wide 2 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a3) + (a1 * a2))) in
  Array.unsafe_set wide 3 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a4) + (a1 * a3))) + (a2 * a2) in
  Array.unsafe_set wide 4 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a5) + (a1 * a4) + (a2 * a3))) in
  Array.unsafe_set wide 5 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a6) + (a1 * a5) + (a2 * a4))) + (a3 * a3) in
  Array.unsafe_set wide 6 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a7) + (a1 * a6) + (a2 * a5) + (a3 * a4))) in
  Array.unsafe_set wide 7 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a8) + (a1 * a7) + (a2 * a6) + (a3 * a5))) + (a4 * a4) in
  Array.unsafe_set wide 8 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a0 * a9) + (a1 * a8) + (a2 * a7) + (a3 * a6) + (a4 * a5))) in
  Array.unsafe_set wide 9 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a1 * a9) + (a2 * a8) + (a3 * a7) + (a4 * a6))) + (a5 * a5) in
  Array.unsafe_set wide 10 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a2 * a9) + (a3 * a8) + (a4 * a7) + (a5 * a6))) in
  Array.unsafe_set wide 11 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a3 * a9) + (a4 * a8) + (a5 * a7))) + (a6 * a6) in
  Array.unsafe_set wide 12 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a4 * a9) + (a5 * a8) + (a6 * a7))) in
  Array.unsafe_set wide 13 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a5 * a9) + (a6 * a8))) + (a7 * a7) in
  Array.unsafe_set wide 14 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a6 * a9) + (a7 * a8))) in
  Array.unsafe_set wide 15 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a7 * a9))) + (a8 * a8) in
  Array.unsafe_set wide 16 (t land mask);
  let t = (t lsr base_bits) + (2 * ((a8 * a9))) in
  Array.unsafe_set wide 17 (t land mask);
  let t = (t lsr base_bits) + (a9 * a9) in
  Array.unsafe_set wide 18 (t land mask);
  let t = t lsr base_bits in
  Array.unsafe_set wide 19 t

(* NIST fast reduction of a value < 2^512 held in [wide], written
   canonically into [r].  [r] must not alias [wide]; it may alias the
   original multiplicands since they were fully consumed by mul_wide.
   The 32-bit words c0..c15 span up to three 26-bit limbs each, with
   constant shifts; every intermediate stays below 2^57. *)
let reduce_wide (r : int array) (wide : int array) =
  let w0 = Array.unsafe_get wide 0 in
  let w1 = Array.unsafe_get wide 1 in
  let w2 = Array.unsafe_get wide 2 in
  let w3 = Array.unsafe_get wide 3 in
  let w4 = Array.unsafe_get wide 4 in
  let w5 = Array.unsafe_get wide 5 in
  let w6 = Array.unsafe_get wide 6 in
  let w7 = Array.unsafe_get wide 7 in
  let w8 = Array.unsafe_get wide 8 in
  let w9 = Array.unsafe_get wide 9 in
  let w10 = Array.unsafe_get wide 10 in
  let w11 = Array.unsafe_get wide 11 in
  let w12 = Array.unsafe_get wide 12 in
  let w13 = Array.unsafe_get wide 13 in
  let w14 = Array.unsafe_get wide 14 in
  let w15 = Array.unsafe_get wide 15 in
  let w16 = Array.unsafe_get wide 16 in
  let w17 = Array.unsafe_get wide 17 in
  let w18 = Array.unsafe_get wide 18 in
  let w19 = Array.unsafe_get wide 19 in
  let c0 = (w0 lor (w1 lsl 26)) land m32 in
  let c1 = ((w1 lsr 6) lor (w2 lsl 20)) land m32 in
  let c2 = ((w2 lsr 12) lor (w3 lsl 14)) land m32 in
  let c3 = ((w3 lsr 18) lor (w4 lsl 8)) land m32 in
  let c4 = ((w4 lsr 24) lor (w5 lsl 2) lor (w6 lsl 28)) land m32 in
  let c5 = ((w6 lsr 4) lor (w7 lsl 22)) land m32 in
  let c6 = ((w7 lsr 10) lor (w8 lsl 16)) land m32 in
  let c7 = ((w8 lsr 16) lor (w9 lsl 10)) land m32 in
  let c8 = ((w9 lsr 22) lor (w10 lsl 4) lor (w11 lsl 30)) land m32 in
  let c9 = ((w11 lsr 2) lor (w12 lsl 24)) land m32 in
  let c10 = ((w12 lsr 8) lor (w13 lsl 18)) land m32 in
  let c11 = ((w13 lsr 14) lor (w14 lsl 12)) land m32 in
  let c12 = ((w14 lsr 20) lor (w15 lsl 6)) land m32 in
  let c13 = (w16 lor (w17 lsl 26)) land m32 in
  let c14 = ((w17 lsr 6) lor (w18 lsl 20)) land m32 in
  let c15 = ((w18 lsr 12) lor (w19 lsl 14)) land m32 in
  (* s1 + 2s2 + 2s3 + s4 + s5 - s6 - s7 - s8 - s9 per 32-bit position *)
  let a0 = c0 + c8 + c9 - c11 - c12 - c13 - c14
  and a1 = c1 + c9 + c10 - c12 - c13 - c14 - c15
  and a2 = c2 + c10 + c11 - c13 - c14 - c15
  and a3 = c3 + (2 * (c11 + c12)) + c13 - c15 - c8 - c9
  and a4 = c4 + (2 * (c12 + c13)) + c14 - c9 - c10
  and a5 = c5 + (2 * (c13 + c14)) + c15 - c10 - c11
  and a6 = c6 + c13 + (3 * c14) + (2 * c15) - c8 - c9
  and a7 = c7 + c8 + (3 * c15) - c10 - c11 - c12 - c13 in
  (* add 4p and carry-normalize to words in [0, 2^32); the sum is in
     (0, 9p) so the carry out of word 7 lands in [0, 8] *)
  let t = a0 + four_p_words.(0) in
  let e0 = t land m32 in
  let t = a1 + four_p_words.(1) + (t asr 32) in
  let e1 = t land m32 in
  let t = a2 + four_p_words.(2) + (t asr 32) in
  let e2 = t land m32 in
  let t = a3 + four_p_words.(3) + (t asr 32) in
  let e3 = t land m32 in
  let t = a4 + four_p_words.(4) + (t asr 32) in
  let e4 = t land m32 in
  let t = a5 + four_p_words.(5) + (t asr 32) in
  let e5 = t land m32 in
  let t = a6 + four_p_words.(6) + (t asr 32) in
  let e6 = t land m32 in
  let t = a7 + four_p_words.(7) + (t asr 32) in
  let e7 = t land m32 in
  let top = (t asr 32) + four_p_words.(8) in
  (* fold the overflow: 2^256 = 2^224 - 2^192 - 2^96 + 1 (mod p); two
     rounds suffice because the first leaves at most one bit above 2^256 *)
  let t = e0 + top in
  let e0 = t land m32 in
  let t = e1 + (t asr 32) in
  let e1 = t land m32 in
  let t = e2 + (t asr 32) in
  let e2 = t land m32 in
  let t = e3 - top + (t asr 32) in
  let e3 = t land m32 in
  let t = e4 + (t asr 32) in
  let e4 = t land m32 in
  let t = e5 + (t asr 32) in
  let e5 = t land m32 in
  let t = e6 - top + (t asr 32) in
  let e6 = t land m32 in
  let t = e7 + top + (t asr 32) in
  let e7 = t land m32 in
  let top = t asr 32 in
  let t = e0 + top in
  let e0 = t land m32 in
  let t = e1 + (t asr 32) in
  let e1 = t land m32 in
  let t = e2 + (t asr 32) in
  let e2 = t land m32 in
  let t = e3 - top + (t asr 32) in
  let e3 = t land m32 in
  let t = e4 + (t asr 32) in
  let e4 = t land m32 in
  let t = e5 + (t asr 32) in
  let e5 = t land m32 in
  let t = e6 - top + (t asr 32) in
  let e6 = t land m32 in
  let t = e7 + top + (t asr 32) in
  let e7 = t land m32 in
  (* the value is now in [0, 2^256): repack eight 32-bit words into ten
     26-bit limbs and finish with one conditional subtraction (< 2p). *)
  r.(0) <- e0 land mask;
  r.(1) <- ((e0 lsr 26) lor (e1 lsl 6)) land mask;
  r.(2) <- ((e1 lsr 20) lor (e2 lsl 12)) land mask;
  r.(3) <- ((e2 lsr 14) lor (e3 lsl 18)) land mask;
  r.(4) <- ((e3 lsr 8) lor (e4 lsl 24)) land mask;
  r.(5) <- (e4 lsr 2) land mask;
  r.(6) <- ((e4 lsr 28) lor (e5 lsl 4)) land mask;
  r.(7) <- ((e5 lsr 22) lor (e6 lsl 10)) land mask;
  r.(8) <- ((e6 lsr 16) lor (e7 lsl 16)) land mask;
  r.(9) <- (e7 lsr 10) land mask;
  cond_sub_p r

(* r <- a * b mod p.  [wide] is caller scratch of [wide_limbs] ints; r may
   alias a or b (the product is drained into [wide] before r is written). *)
let mul_into (wide : int array) (r : int array) (a : int array) (b : int array) =
  mul_wide wide a b;
  reduce_wide r wide

(* r <- a^2 mod p.  Same aliasing contract as [mul_into]. *)
let sqr_into (wide : int array) (r : int array) (a : int array) =
  sqr_wide wide a;
  reduce_wide r wide

(* r <- a^(p−2) = a⁻¹ (a ≠ 0), by Fermat over the in-place kernels: 255
   squarings and 12 multiplications along the addition chain for
   p − 2 = 1³²0³¹1 0⁹⁶ 1⁹⁴01 (bits, most significant first), building
   runs of ones x_k = a^(2^k − 1).  Allocation-free apart from the run
   temporaries, and about 4× faster than the generic backend's binary
   extended gcd over [Nat.t]. *)
let inv_into (wide : int array) (r : int array) (a : int array) =
  let sqr_n x n =
    for _ = 1 to n do
      sqr_into wide x x
    done
  in
  let run ~from ~shift ~times =
    let x = Array.copy from in
    sqr_n x shift;
    mul_into wide x x times;
    x
  in
  let x1 = Array.copy a in
  let x2 = run ~from:x1 ~shift:1 ~times:x1 in
  let x3 = run ~from:x2 ~shift:1 ~times:x1 in
  let x6 = run ~from:x3 ~shift:3 ~times:x3 in
  let x12 = run ~from:x6 ~shift:6 ~times:x6 in
  let x15 = run ~from:x12 ~shift:3 ~times:x3 in
  let x30 = run ~from:x15 ~shift:15 ~times:x15 in
  let x32 = run ~from:x30 ~shift:2 ~times:x2 in
  copy_into r x32;
  List.iter
    (fun (shift, times) ->
      sqr_n r shift;
      mul_into wide r r times)
    [ (32, x1); (128, x32); (32, x32); (30, x30); (2, x1) ]

(* ---- conversions between Nat.t and the fixed-limb form ---- *)

(* Read-only view: a canonical (< p) Nat needs at most padding.  The result
   may share structure with [a]; callers must not mutate it. *)
let ro_of_fe (a : Nat.t) : int array = if Array.length a = nlimbs then a else pad a

(* Owned, mutable copy. *)
let own_of_fe (a : Nat.t) : int array =
  if Array.length a = nlimbs then Array.copy a else pad a

(* Trimmed, freshly-allocated Nat (callers never observe kernel scratch). *)
let to_fe (a : int array) : Nat.t =
  let n = ref nlimbs in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  Array.sub a 0 !n

(* Full reduction of an arbitrary Nat into canonical fixed-limb form. *)
let reduce_nat (x : Nat.t) : int array =
  let lx = Array.length x in
  if lx < nlimbs then pad x
  else if lx = nlimbs && not (geq_p x) then Array.copy x
  else if lx < wide_limbs then begin
    let wide = Array.make wide_limbs 0 in
    Array.blit x 0 wide 0 lx;
    let r = Array.make nlimbs 0 in
    reduce_wide r wide;
    r
  end
  else pad (snd (Nat.divmod x p_nat))

(* ---- Modarith-compatible field API ----

   [Fe] satisfies [Modarith.S] with [t = Nat.t], so every existing consumer
   of [P256.Fe] — point arithmetic, ECDSA, ElGamal, hash-to-curve, the
   password protocol — recompiles unchanged.  Values are always canonical
   normalized Nats; the fixed-limb hop is a length check in, a trim out. *)

(* Per-domain scratch for the wide product: steady-state field ops allocate
   only their result.  Domain-local so [Parallel.map] workers never race. *)
let scratch_key = Domain.DLS.new_key (fun () -> Array.make wide_limbs 0)

(* A freshly-allocated result array is returned as-is when its top limb is
   nonzero (almost always, for uniformly distributed elements): the kernel
   output is already a normalized Nat, so the [to_fe] trim-and-copy is only
   needed for values below 2^234. *)
let box (r : int array) : Nat.t = if Array.unsafe_get r (nlimbs - 1) <> 0 then r else to_fe r

module Fe : Modarith.S = struct
  type t = Nat.t

  let modulus = p_nat
  let ctx = Modarith.make p_nat
  let zero = Nat.zero
  let one = Nat.one
  let of_nat x = to_fe (reduce_nat x)
  let of_int x = Nat.of_int x
  let of_bytes_be s = of_nat (Nat.of_bytes_be s)
  let byte_length = 32
  let to_bytes_be x = Nat.to_bytes_be ~len:byte_length x
  let equal = Nat.equal

  let add a b =
    let r = Array.make nlimbs 0 in
    add_into r (ro_of_fe a) (ro_of_fe b);
    box r

  let sub a b =
    let r = Array.make nlimbs 0 in
    sub_into r (ro_of_fe a) (ro_of_fe b);
    box r

  let neg a =
    let r = Array.make nlimbs 0 in
    neg_into r (ro_of_fe a);
    box r

  let mul a b =
    let wide = Domain.DLS.get scratch_key in
    let r = Array.make nlimbs 0 in
    mul_into wide r (ro_of_fe a) (ro_of_fe b);
    box r

  let sqr a =
    let wide = Domain.DLS.get scratch_key in
    let r = Array.make nlimbs 0 in
    sqr_into wide r (ro_of_fe a);
    box r

  let pow (a : t) (e : Nat.t) : t =
    let wide = Domain.DLS.get scratch_key in
    let acc = pad Nat.one in
    let base = own_of_fe a in
    for i = Nat.bit_length e - 1 downto 0 do
      sqr_into wide acc acc;
      if Nat.test_bit e i then mul_into wide acc acc base
    done;
    box acc

  let inv a =
    let a = reduce_nat a in
    if is_zero a then invalid_arg "Modarith.inv: zero";
    let r = Array.make nlimbs 0 in
    inv_into (Domain.DLS.get scratch_key) r a;
    box r

  (* p = 3 (mod 4): candidate root a^((p+1)/4). *)
  let sqrt_exp = Nat.shift_right (Nat.add p_nat Nat.one) 2

  let sqrt a =
    let r = pow a sqrt_exp in
    if Nat.equal (sqr r) (of_nat a) then Some r else None

  let random ~rand_bytes = Modarith.random ctx ~rand_bytes
  let random_nonzero ~rand_bytes = Modarith.random_nonzero ctx ~rand_bytes
  let pp = Nat.pp
end

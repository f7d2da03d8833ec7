(* P-256 group operations in Jacobian coordinates.

   A point (X, Y, Z) with Z <> 0 represents the affine point (X/Z², Y/Z³);
   Z = 0 is the point at infinity.  Doubling uses the a = -3 "dbl-2001-b"
   formulas; addition uses "add-2007-bl".  These are complete for this code
   because addition dispatches explicitly on the H = 0 cases.

   Hot paths run on the fixed-limb [Fe256] kernels: scalar-multiplication
   loops work on mutable 10-limb Jacobian triples with caller-owned scratch,
   so the steady state allocates nothing.  Variable-point multiplication is
   width-5 wNAF (8 precomputed odd multiples, ~1 addition per 6 doublings);
   [multi_mul] interleaves many such digit streams over one shared doubling
   chain (Straus) below a measured crossover and switches to Pippenger's
   buckets above it, and [mul_add] is its two-term case — what halves ECDSA
   verification relative to two independent ladders.  [normalize_batch]
   shares one field inversion across a batch of points, and affine points
   (Z = 1) encode without one. *)

open Larch_bignum
module Fe = P256.Fe
module Scalar = P256.Scalar
module F = Fe256

type t = { x : Fe.t; y : Fe.t; z : Fe.t }

let infinity = { x = Fe.one; y = Fe.one; z = Fe.zero }
let is_infinity p = Nat.is_zero p.z
let of_affine ~(x : Fe.t) ~(y : Fe.t) : t = { x; y; z = Fe.one }
let g : t = of_affine ~x:(Fe.of_nat P256.gx) ~y:(Fe.of_nat P256.gy)

let to_affine (p : t) : (Fe.t * Fe.t) option =
  if is_infinity p then None
  else if Nat.is_one p.z then Some (p.x, p.y)
  else begin
    let zinv = Fe.inv p.z in
    let zinv2 = Fe.sqr zinv in
    Some (Fe.mul p.x zinv2, Fe.mul p.y (Fe.mul zinv2 zinv))
  end

let equal (p : t) (q : t) : bool =
  match (is_infinity p, is_infinity q) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
      (* Cross-multiply to compare without inversion:
         X1*Z2² = X2*Z1² and Y1*Z2³ = Y2*Z1³. *)
      let z1z1 = Fe.sqr p.z and z2z2 = Fe.sqr q.z in
      Fe.equal (Fe.mul p.x z2z2) (Fe.mul q.x z1z1)
      && Fe.equal (Fe.mul p.y (Fe.mul z2z2 q.z)) (Fe.mul q.y (Fe.mul z1z1 p.z))

(* Montgomery's trick: one inversion for the whole batch.  prefix.(i) is
   the product of the Z of every finite, not-yet-affine point up to i;
   walking back from the inverse of the full product peels off one Z⁻¹ per
   point with two multiplications. *)
let normalize_batch (ps : t array) : t array =
  let todo p = not (is_infinity p || Nat.is_one p.z) in
  if not (Array.exists todo ps) then ps
  else begin
    let prefix = Array.make (Array.length ps) Fe.one in
    let acc = ref Fe.one in
    Array.iteri
      (fun i p ->
        if todo p then acc := Fe.mul !acc p.z;
        prefix.(i) <- !acc)
      ps;
    let out = Array.copy ps in
    let inv = ref (Fe.inv !acc) in
    for i = Array.length ps - 1 downto 0 do
      let p = ps.(i) in
      if todo p then begin
        let zinv = if i = 0 then !inv else Fe.mul !inv prefix.(i - 1) in
        inv := Fe.mul !inv p.z;
        let zinv2 = Fe.sqr zinv in
        out.(i) <- { x = Fe.mul p.x zinv2; y = Fe.mul p.y (Fe.mul zinv2 zinv); z = Fe.one }
      end
    done;
    out
  end

(* ---- mutable Jacobian working form over the fixed-limb kernels ---- *)

type jac = { jx : int array; jy : int array; jz : int array }

type scratch = {
  wide : int array;
  t1 : int array;
  t2 : int array;
  t3 : int array;
  t4 : int array;
  t5 : int array;
  t6 : int array;
  t7 : int array;
  t8 : int array;
  tq : jac; (* negated table entry for subtractive wNAF digits *)
}

let fresh () = Array.make F.nlimbs 0
let jac_infinity () = { jx = fresh (); jy = fresh (); jz = fresh () }

let make_scratch () =
  {
    wide = Array.make F.wide_limbs 0;
    t1 = fresh ();
    t2 = fresh ();
    t3 = fresh ();
    t4 = fresh ();
    t5 = fresh ();
    t6 = fresh ();
    t7 = fresh ();
    t8 = fresh ();
    tq = jac_infinity ();
  }

let jac_of_point (p : t) : jac =
  { jx = F.own_of_fe p.x; jy = F.own_of_fe p.y; jz = F.own_of_fe p.z }

let point_of_jac (j : jac) : t =
  if F.is_zero j.jz then infinity
  else { x = F.to_fe j.jx; y = F.to_fe j.jy; z = F.to_fe j.jz }

let jac_copy (dst : jac) (src : jac) =
  F.copy_into dst.jx src.jx;
  F.copy_into dst.jy src.jy;
  F.copy_into dst.jz src.jz

let set_infinity (j : jac) = F.set_zero j.jz

(* In-place doubling (dbl-2001-b, a = -3).  The 3·, 4·, 8· small-constant
   multiplications of the old code are additions here — no per-call
   [Fe.of_int] constants, no allocation at all. *)
let dbl (s : scratch) (j : jac) =
  if F.is_zero j.jz || F.is_zero j.jy then set_infinity j
  else begin
    let { wide; t1; t2; t3; t4; t5; _ } = s in
    F.sqr_into wide t1 j.jz;
    (* delta = Z² *)
    F.sqr_into wide t2 j.jy;
    (* gamma = Y² *)
    F.mul_into wide t3 j.jx t2;
    (* beta = X·gamma *)
    F.sub_into t4 j.jx t1;
    F.add_into t5 j.jx t1;
    F.mul_into wide t4 t4 t5;
    F.add_into t5 t4 t4;
    F.add_into t4 t5 t4;
    (* alpha = 3(X-delta)(X+delta) *)
    F.add_into j.jz j.jy j.jz;
    F.sqr_into wide j.jz j.jz;
    F.sub_into j.jz j.jz t2;
    F.sub_into j.jz j.jz t1;
    (* Z3 = (Y+Z)² - gamma - delta *)
    F.add_into t5 t3 t3;
    F.add_into t5 t5 t5;
    (* t5 = 4·beta *)
    F.sqr_into wide j.jx t4;
    F.sub_into j.jx j.jx t5;
    F.sub_into j.jx j.jx t5;
    (* X3 = alpha² - 8·beta *)
    F.sub_into t5 t5 j.jx;
    F.mul_into wide t5 t4 t5;
    (* alpha·(4beta - X3) *)
    F.sqr_into wide t2 t2;
    F.add_into t2 t2 t2;
    F.add_into t2 t2 t2;
    F.add_into t2 t2 t2;
    (* 8·gamma² *)
    F.sub_into j.jy t5 t2
  end

(* p <- p + q, in place (add-2007-bl).  [q] must be a distinct triple; it is
   only read. *)
let add_assign (s : scratch) (p : jac) (q : jac) =
  if F.is_zero q.jz then ()
  else if F.is_zero p.jz then jac_copy p q
  else begin
    let { wide; t1; t2; t3; t4; t5; t6; t7; t8; _ } = s in
    F.sqr_into wide t1 p.jz;
    (* Z1Z1 *)
    F.sqr_into wide t2 q.jz;
    (* Z2Z2 *)
    F.mul_into wide t3 p.jx t2;
    (* U1 *)
    F.mul_into wide t4 q.jx t1;
    (* U2 *)
    F.mul_into wide t5 q.jz t2;
    F.mul_into wide t5 p.jy t5;
    (* S1 *)
    F.mul_into wide t6 p.jz t1;
    F.mul_into wide t6 q.jy t6;
    (* S2 *)
    F.sub_into t4 t4 t3;
    (* H = U2 - U1 *)
    F.sub_into t6 t6 t5;
    (* S2 - S1 *)
    if F.is_zero t4 then begin
      if F.is_zero t6 then dbl s p else set_infinity p
    end
    else begin
      F.add_into t7 p.jz q.jz;
      F.sqr_into wide t7 t7;
      F.sub_into t7 t7 t1;
      F.sub_into t7 t7 t2;
      F.mul_into wide p.jz t7 t4;
      (* Z3 = ((Z1+Z2)² - Z1Z1 - Z2Z2)·H *)
      F.add_into t6 t6 t6;
      (* r = 2(S2 - S1) *)
      F.add_into t7 t4 t4;
      F.sqr_into wide t7 t7;
      (* I = (2H)² *)
      F.mul_into wide t8 t4 t7;
      (* J = H·I *)
      F.mul_into wide t3 t3 t7;
      (* V = U1·I *)
      F.sqr_into wide p.jx t6;
      F.sub_into p.jx p.jx t8;
      F.sub_into p.jx p.jx t3;
      F.sub_into p.jx p.jx t3;
      (* X3 = r² - J - 2V *)
      F.sub_into t3 t3 p.jx;
      F.mul_into wide t3 t6 t3;
      (* r·(V - X3) *)
      F.mul_into wide t5 t5 t8;
      F.add_into t5 t5 t5;
      (* 2·S1·J *)
      F.sub_into p.jy t3 t5
    end
  end

(* p <- p - q via the scratch-held negation of q. *)
let add_assign_neg (s : scratch) (p : jac) (q : jac) =
  F.copy_into s.tq.jx q.jx;
  F.neg_into s.tq.jy q.jy;
  F.copy_into s.tq.jz q.jz;
  add_assign s p s.tq

(* ---- immutable API over the mutable kernels ---- *)

let double (p : t) : t =
  if is_infinity p || Nat.is_zero p.y then infinity
  else begin
    let s = make_scratch () in
    let j = jac_of_point p in
    dbl s j;
    point_of_jac j
  end

let add (p : t) (q : t) : t =
  if is_infinity p then q
  else if is_infinity q then p
  else begin
    let s = make_scratch () in
    let jp = jac_of_point p and jq = jac_of_point q in
    add_assign s jp jq;
    point_of_jac jp
  end

let neg (p : t) : t = if is_infinity p then p else { p with y = Fe.neg p.y }
let sub (p : t) (q : t) : t = add p (neg q)

(* ---- width-5 wNAF recoding ----

   Digits are odd in ±{1, 3, …, 15}; nonzero digits average one per w+1 = 6
   positions, so a 256-bit scalar costs ~256 doublings + ~43 additions
   against an 8-entry odd-multiples table (the 4-bit window of the old code
   paid 64 additions).  The recoding works on a small mutable limb buffer:
   test low bits, subtract the signed digit, shift right.  Digits are kept
   one signed byte each, so a recoding is a 33-word minor-heap block rather
   than a 262-word array the runtime would allocate straight into the
   major heap. *)

let wnaf_width = 5
let wnaf_mask = (1 lsl wnaf_width) - 1
let wnaf_half = 1 lsl (wnaf_width - 1)

(* Odd digits below [wnaf_half] in magnitude: P, 3P, …, 15P. *)
let wnaf_table = wnaf_half / 2

(* Scalars are < 2^256 (enforced by Scalar/Nat invariants upstream); one
   spare limb absorbs the carry from adding a negative digit back. *)
let wnaf_buf_limbs = 11

let digit_at (digits : Bytes.t) (i : int) : int =
  (Char.code (Bytes.unsafe_get digits i) lxor 0x80) - 0x80

let wnaf_digits (k : Nat.t) : Bytes.t * int =
  if Array.length k > F.nlimbs then invalid_arg "Point.wnaf_digits: scalar too large";
  let buf = Array.make wnaf_buf_limbs 0 in
  Array.blit k 0 buf 0 (Array.length k);
  (* a 10-limb Nat is < 2^260; one extra position absorbs digit carries *)
  let digits = Bytes.make 262 '\000' in
  let top = ref (-1) in
  let nonzero = ref (not (Nat.is_zero k)) in
  let i = ref 0 in
  while !nonzero do
    (if buf.(0) land 1 = 1 then begin
       let d = buf.(0) land wnaf_mask in
       let d = if d >= wnaf_half then d - (2 * wnaf_half) else d in
       Bytes.unsafe_set digits !i (Char.unsafe_chr (d land 0xff));
       top := !i;
       if d > 0 then begin
         (* buf -= d: d is the low bits of an odd buf, so no underflow *)
         let borrow = ref d in
         let l = ref 0 in
         while !borrow <> 0 do
           let t = buf.(!l) - !borrow in
           if t < 0 then begin
             buf.(!l) <- t + (1 lsl F.base_bits);
             borrow := 1
           end
           else begin
             buf.(!l) <- t;
             borrow := 0
           end;
           incr l
         done
       end
       else begin
         let carry = ref (-d) in
         let l = ref 0 in
         while !carry <> 0 do
           let t = buf.(!l) + !carry in
           buf.(!l) <- t land F.mask;
           carry := t lsr F.base_bits;
           incr l
         done
       end
     end);
    (* buf >>= 1 *)
    for l = 0 to wnaf_buf_limbs - 1 do
      let hi = if l + 1 < wnaf_buf_limbs then buf.(l + 1) land 1 else 0 in
      buf.(l) <- (buf.(l) lsr 1) lor (hi lsl (F.base_bits - 1))
    done;
    incr i;
    nonzero := false;
    for l = 0 to wnaf_buf_limbs - 1 do
      if buf.(l) <> 0 then nonzero := true
    done
  done;
  (digits, !top)

(* Odd multiples P, 3P, …, 15P as mutable Jacobian triples: the wNAF
   table. *)
let odd_multiples (s : scratch) (base : jac) : jac array =
  let tbl = Array.init wnaf_table (fun _ -> jac_infinity ()) in
  jac_copy tbl.(0) base;
  let twice = jac_infinity () in
  jac_copy twice base;
  dbl s twice;
  for i = 1 to wnaf_table - 1 do
    jac_copy tbl.(i) tbl.(i - 1);
    add_assign s tbl.(i) twice
  done;
  tbl

let apply_digit (s : scratch) (acc : jac) (tbl : jac array) (d : int) =
  if d > 0 then add_assign s acc tbl.(d lsr 1)
  else if d < 0 then add_assign_neg s acc tbl.((-d) lsr 1)

(* ---- cached base-point tables ----

   Both tables are built exactly once, under a mutex, and published through
   an [Atomic]: OCaml's [Lazy] is not safe to force concurrently, and
   [Parallel.map] runs group operations from several domains at once.  The
   build counter is exposed so tests can assert single construction. *)

let table_lock = Mutex.create ()
let table_builds = Atomic.make 0
let base_table_builds () = Atomic.get table_builds

let once (cell : 'a option Atomic.t) (build : unit -> 'a) : 'a =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      Mutex.protect table_lock (fun () ->
          match Atomic.get cell with
          | Some v -> v
          | None ->
              let v = build () in
              Atomic.incr table_builds;
              Atomic.set cell (Some v);
              v)

(* comb.(w).(d) = d · 2^(4w) · G for 4-bit digits d (Lim-Lee style
   single-row comb): base-point multiplication is 64 additions, no
   doublings. *)
let comb_cell : jac array array option Atomic.t = Atomic.make None

let build_comb () =
  let s = make_scratch () in
  let cur = jac_of_point g in
  let tbl =
    Array.init 64 (fun _ -> Array.init 16 (fun _ -> jac_infinity ()))
  in
  for w = 0 to 63 do
    let row = tbl.(w) in
    jac_copy row.(1) cur;
    for d = 2 to 15 do
      jac_copy row.(d) row.(d - 1);
      add_assign s row.(d) cur
    done;
    for _ = 1 to 4 do
      dbl s cur
    done
  done;
  tbl

(* Odd multiples of G for the Strauss–Shamir joint ladder. *)
let g_odd_cell : jac array option Atomic.t = Atomic.make None

let build_g_odd () =
  let s = make_scratch () in
  odd_multiples s (jac_of_point g)

let mul_base (k : Scalar.t) : t =
  if Nat.is_zero k then infinity
  else begin
    let table = once comb_cell build_comb in
    let s = make_scratch () in
    let acc = jac_infinity () in
    let kb = Scalar.to_bytes_be k in
    (* byte i (big-endian) covers windows 2*(31-i)+1 and 2*(31-i). *)
    for i = 0 to 31 do
      let byte = Char.code kb.[i] in
      let w_hi = (2 * (31 - i)) + 1 and w_lo = 2 * (31 - i) in
      let hi = byte lsr 4 and lo = byte land 0xf in
      if hi <> 0 then add_assign s acc table.(w_hi).(hi);
      if lo <> 0 then add_assign s acc table.(w_lo).(lo)
    done;
    point_of_jac acc
  end

(* Pippenger's bucket method: per w-bit window, every term lands in one of
   2^w − 1 buckets and a running sum weighs the buckets, so the work per
   window is n + 2^(w+1) additions regardless of the scalars. *)
let pippenger (terms : (Scalar.t * t) array) : t =
  let n = Array.length terms in
  let s = make_scratch () in
  let w = if n >= 256 then 6 else 5 (* n > multi_mul_crossover here *) in
  let nbuckets = (1 lsl w) - 1 in
  let nwindows = (256 + w - 1) / w in
  let jterms = Array.map (fun (k, p) -> (k, jac_of_point p)) terms in
  let digit k win =
    (* bits [win*w, win*w + w) of the scalar *)
    let d = ref 0 in
    for b = (win * w) + w - 1 downto win * w do
      d := (!d lsl 1) lor if b < 256 && Nat.test_bit k b then 1 else 0
    done;
    !d
  in
  let buckets = Array.init nbuckets (fun _ -> jac_infinity ()) in
  let run = jac_infinity () and total = jac_infinity () and acc = jac_infinity () in
  for win = nwindows - 1 downto 0 do
    for _ = 1 to w do
      dbl s acc
    done;
    Array.iter set_infinity buckets;
    Array.iter
      (fun (k, jp) ->
        let d = digit k win in
        if d > 0 then add_assign s buckets.(d - 1) jp)
      jterms;
    set_infinity run;
    set_infinity total;
    for d = nbuckets downto 1 do
      add_assign s run buckets.(d - 1);
      add_assign s total run
    done;
    add_assign s acc total
  done;
  point_of_jac acc

(* Straus's interleaving: every term's width-5 wNAF digits ride one shared
   chain of ~256 doublings, so n terms cost ~256 doublings and ~43n
   additions, plus an 8-entry table of odd multiples per base.  The terms
   on [g] arrive folded into one scalar [kg] and use the cached
   odd-multiples table. *)
let straus (kg : Scalar.t) (terms : (Scalar.t * t) array) : t =
  let s = make_scratch () in
  let lane k tbl =
    let digits, top = wnaf_digits k in
    (digits, top, tbl)
  in
  let lanes = Array.map (fun (k, p) -> lane k (odd_multiples s (jac_of_point p))) terms in
  let lanes =
    if Nat.is_zero kg then lanes
    else Array.append [| lane kg (once g_odd_cell build_g_odd) |] lanes
  in
  let top = Array.fold_left (fun m (_, t, _) -> max m t) (-1) lanes in
  let acc = jac_infinity () in
  for i = top downto 0 do
    dbl s acc;
    Array.iter (fun (digits, t, tbl) -> if i <= t then apply_digit s acc tbl (digit_at digits i)) lanes
  done;
  point_of_jac acc

(* Up to this many variable-base terms Straus is at least as fast as
   Pippenger.  Measured on a shared 2-vCPU x86-64 host (best of 3): Straus
   is 2.5× faster at n = 8 and 1.25× at n = 64, the two are even from 128
   to 256, and Pippenger is 1.3–1.4× faster from n = 384 on. *)
let multi_mul_crossover = 128

(* Σᵢ kᵢ·Pᵢ, exact for every input: zero scalars and infinity bases drop
   out, the terms on [g] fold into one scalar (the comb when nothing else
   remains, otherwise one lane on the cached table, kept out of the
   crossover count), and the count of what remains picks the algorithm. *)
let multi_mul (pairs : (Scalar.t * t) array) : t =
  let kg = ref Scalar.zero in
  let terms =
    List.filter
      (fun (k, p) ->
        if Nat.is_zero k || is_infinity p then false
        else if p == g then begin
          kg := Scalar.add !kg k;
          false
        end
        else true)
      (Array.to_list pairs)
  in
  let terms = Array.of_list terms in
  if Array.length terms = 0 then mul_base !kg
  else if Array.length terms <= multi_mul_crossover then straus !kg terms
  else if Nat.is_zero !kg then pippenger terms
  else pippenger (Array.append [| (!kg, g) |] terms)

(* Variable-point scalar multiplication: one width-5 wNAF lane (the comb
   when the point is [g]). *)
let mul (k : Scalar.t) (p : t) : t = multi_mul [| (k, p) |]

(* k1·G + k2·Q on one shared doubling chain (Strauss–Shamir): ~256
   doublings total instead of 512 across two independent ladders.  This is
   the ECDSA-verify shape u1·G + u2·Q. *)
let mul_add (k1 : Scalar.t) (k2 : Scalar.t) (q : t) : t = multi_mul [| (k1, g); (k2, q) |]

let is_on_curve (p : t) : bool =
  if is_infinity p then true
  else begin
    match to_affine p with
    | None -> true
    | Some (x, y) ->
        let rhs = Fe.add (Fe.add (Fe.mul (Fe.sqr x) x) (Fe.mul P256.a x)) (Fe.of_nat P256.b) in
        Fe.equal (Fe.sqr y) rhs
  end

(* SEC1 uncompressed encoding; infinity encodes as a single zero byte. *)
let encode (p : t) : string =
  match to_affine p with
  | None -> "\x00"
  | Some (x, y) -> "\x04" ^ Fe.to_bytes_be x ^ Fe.to_bytes_be y

let decode (s : string) : t option =
  if s = "\x00" then Some infinity
  else if String.length s = 65 && s.[0] = '\x04' then begin
    let x = Nat.of_bytes_be (String.sub s 1 32) and y = Nat.of_bytes_be (String.sub s 33 32) in
    if Nat.compare x P256.p >= 0 || Nat.compare y P256.p >= 0 then None
    else begin
      let pt = of_affine ~x ~y in
      if is_on_curve pt then Some pt else None
    end
  end
  else None

let decode_exn s =
  match decode s with Some p -> p | None -> invalid_arg "Point.decode_exn: invalid encoding"

(* SEC1 compressed encoding (33 bytes); infinity as a single zero byte. *)
let encode_compressed (p : t) : string =
  match to_affine p with
  | None -> "\x00"
  | Some (x, y) ->
      let tag = if Nat.test_bit y 0 then "\x03" else "\x02" in
      tag ^ Fe.to_bytes_be x

let decode_compressed (s : string) : t option =
  if s = "\x00" then Some infinity
  else if String.length s = 33 && (s.[0] = '\x02' || s.[0] = '\x03') then begin
    let x = Nat.of_bytes_be (String.sub s 1 32) in
    if Nat.compare x P256.p >= 0 then None
    else begin
      let rhs = Fe.add (Fe.add (Fe.mul (Fe.sqr x) x) (Fe.mul P256.a x)) (Fe.of_nat P256.b) in
      match Fe.sqrt rhs with
      | None -> None
      | Some y ->
          let want_odd = s.[0] = '\x03' in
          let y = if Nat.test_bit y 0 = want_odd then y else Fe.neg y in
          Some (of_affine ~x ~y)
    end
  end
  else None

(* x-coordinate as a scalar: ECDSA's conversion function f : G -> Z_n. *)
let x_scalar (p : t) : Scalar.t =
  match to_affine p with
  | None -> invalid_arg "Point.x_scalar: infinity"
  | Some (x, _) -> Scalar.of_nat x

let random ~(rand_bytes : int -> string) : Scalar.t * t =
  let k = Scalar.random_nonzero ~rand_bytes in
  (k, mul_base k)

let pp fmt p =
  match to_affine p with
  | None -> Fmt.pf fmt "Infinity"
  | Some (x, y) -> Fmt.pf fmt "(%a, %a)" Fe.pp x Fe.pp y

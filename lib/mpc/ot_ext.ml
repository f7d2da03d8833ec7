(* IKNP oblivious-transfer extension (semi-honest).

   Turns κ = 128 public-key base OTs into m symmetric-crypto OTs.  The TOTP
   protocol runs one extension per authentication to deliver the log's
   garbled-circuit input labels; the base-OT cost is paid in the offline
   phase.

   Roles: the extension *sender* S holds message pairs (m0_i, m1_i); the
   extension *receiver* R holds choice bits r_i.  In the base OTs the roles
   reverse: R acts as base-sender of seed pairs, S as base-receiver with a
   random selection string s ∈ {0,1}^κ.

     t_j = PRG(k0_j)                      (column j, length m)
     u_j = t_j ⊕ PRG(k1_j) ⊕ r            (sent R → S)
     q_j = PRG(k_{s_j},j) ⊕ s_j·u_j = t_j ⊕ s_j·r
     row i:  q_i = t_i ⊕ r_i·s
     pads:   y0_i = H(i, q_i),  y1_i = H(i, q_i ⊕ s);  R knows H(i, t_i) = y_{r_i}. *)

module Bytesx = Larch_util.Bytesx
module Sha256 = Larch_hash.Sha256
module Scalar = Larch_ec.P256.Scalar

let kappa = 128
let row_len = kappa / 8

(* --- base-OT phase (R = base sender, S = base receiver) --- *)

type r_base = { k0 : string array; k1 : string array } (* κ seed pairs, 16B each *)
type s_base = { s_bits : int array; ks : string array } (* selection bits + chosen seeds *)

(* Every DRBG draw of the base OTs, made up front.  Each party's draws come
   in the order the interleaved protocol made them: R draws a, then k0[],
   then k1[]; S draws s_bits[], then b_0 … b_127. *)
type base_draws = { a : Scalar.t; seeds : r_base; choices : int array; bs : Scalar.t array }

let draw_base_ots ~(rand_bytes_r : int -> string) ~(rand_bytes_s : int -> string) : base_draws =
  let a = Scalar.random_nonzero ~rand_bytes:rand_bytes_r in
  let k0 = Array.init kappa (fun _ -> rand_bytes_r 16) in
  let k1 = Array.init kappa (fun _ -> rand_bytes_r 16) in
  let choices = Array.init kappa (fun _ -> Char.code (rand_bytes_s 1).[0] land 1) in
  let bs = Array.init kappa (fun _ -> Scalar.random_nonzero ~rand_bytes:rand_bytes_s) in
  { a; seeds = { k0; k1 }; choices; bs }

(* The κ base OTs in one in-process exchange: pure group arithmetic and
   key derivation over the draws, safe to run on another domain.  Returns
   what each side retains plus the bytes the exchange would put on the
   wire: the sender's setup point, then per OT the receiver's point and
   the two 16-byte ciphertexts. *)
let base_ots (d : base_draws) : r_base * s_base * int =
  let st, setup = Ot.sender_setup d.a in
  let ks =
    Array.init kappa (fun j ->
        let choice = d.choices.(j) in
        let rstate, rmsg = Ot.receiver_choose ~setup ~choice d.bs.(j) in
        let payload =
          Ot.sender_encrypt ~state:st ~msg:rmsg ~m0:d.seeds.k0.(j) ~m1:d.seeds.k1.(j)
        in
        Ot.receiver_recover ~state:rstate ~choice payload)
  in
  (d.seeds, { s_bits = d.choices; ks }, 65 + (kappa * (65 + 32)))

let run_base_ots ~(rand_bytes_r : int -> string) ~(rand_bytes_s : int -> string) :
    r_base * s_base * int =
  base_ots (draw_base_ots ~rand_bytes_r ~rand_bytes_s)

(* --- extension phase --- *)

let column_prg (seed : string) (j : int) (m_bytes : int) : string =
  Larch_cipher.Prg.next_bytes
    (Larch_cipher.Prg.create (seed ^ "iknp-col" ^ Bytesx.be32 j))
    m_bytes

(* Column-major κ × m bit matrix (column j at [j * m_bytes]) to row-major
   (row i at [row_len * i]), one 8×8 bit block per step: block (ib, jb)
   gathers byte ib of columns 8jb … 8jb+7 into a word whose byte c, bit r
   is column 8jb+c's bit for row 8ib+r, and the three-step swap
   transpose (Hacker's Delight §7-3) moves that bit to byte r, bit c. *)
let transpose (cols : Bytes.t) ~(m_bytes : int) : Bytes.t =
  let rows = Bytes.create (row_len * 8 * m_bytes) in
  for ib = 0 to m_bytes - 1 do
    for jb = 0 to row_len - 1 do
      let byte c = Char.code (Bytes.get cols ((((8 * jb) + c) * m_bytes) + ib)) in
      let lo = byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24) in
      let hi = byte 4 lor (byte 5 lsl 8) lor (byte 6 lsl 16) lor (byte 7 lsl 24) in
      let x = Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32) in
      let t = Int64.logand (Int64.logxor x (Int64.shift_right_logical x 7)) 0x00AA00AA00AA00AAL in
      let x = Int64.logxor x (Int64.logxor t (Int64.shift_left t 7)) in
      let t = Int64.logand (Int64.logxor x (Int64.shift_right_logical x 14)) 0x0000CCCC0000CCCCL in
      let x = Int64.logxor x (Int64.logxor t (Int64.shift_left t 14)) in
      let t = Int64.logand (Int64.logxor x (Int64.shift_right_logical x 28)) 0x00000000F0F0F0F0L in
      let x = Int64.logxor x (Int64.logxor t (Int64.shift_left t 28)) in
      for r = 0 to 7 do
        Bytes.set rows
          ((row_len * ((8 * ib) + r)) + jb)
          (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical x (8 * r)) land 0xff))
      done
    done
  done;
  rows

(* The pads are HKDF-SHA256(ikm = row, no salt, info = "iknp-pad" ‖ be32 i).
   Without a salt the extract key is 32 zero bytes, so its HMAC ipad/opad
   blocks are constants whose midstates are computed once: a pad of up to
   32 bytes costs 6 compressions (extract 2, the PRK's ipad/opad blocks 2,
   T(1) 2) instead of 8, all in a reusable context, XORed straight into
   the destination. *)
let midstate (fill : char) : int array =
  let h = Array.copy Sha256.initial_state in
  Sha256.compress_with (Array.make 64 0) h (String.make Sha256.block_size fill) 0;
  h

let zero_ipad = midstate '\x36'
let zero_opad = midstate '\x5c'

type pad_ctx = {
  w : int array;
  h : int array;
  ih : int array; (* midstate after the PRK's ipad block *)
  oh : int array; (* … and after its opad block *)
  blk : Bytes.t;
  t : Bytes.t; (* PRK, then T(n) *)
}

let pad_ctx () =
  {
    w = Array.make 64 0;
    h = Array.make 8 0;
    ih = Array.make 8 0;
    oh = Array.make 8 0;
    blk = Bytes.create Sha256.block_size;
    t = Bytes.create Sha256.digest_size;
  }

(* h <- mid; compress the final block of an HMAC half whose message is
   blk[0, len) after one 64-byte key block (len <= 55). *)
let final_block (p : pad_ctx) (mid : int array) (len : int) : unit =
  Array.blit mid 0 p.h 0 8;
  Bytes.set p.blk len '\x80';
  Bytes.fill p.blk (len + 1) (55 - len) '\000';
  Bytes.set_int64_be p.blk 56 (Int64.of_int (8 * (Sha256.block_size + len)));
  Sha256.compress_with p.w p.h (Bytes.unsafe_to_string p.blk) 0

let put_h (p : pad_ctx) (dst : Bytes.t) : unit =
  for k = 0 to 7 do
    Bytesx.set_be32 dst (4 * k) p.h.(k)
  done

(* HMAC over blk[0, len) with the key whose midstates are (ih, oh); the
   digest lands in [p.t]. *)
let hmac_block (p : pad_ctx) ~(ih : int array) ~(oh : int array) (len : int) : unit =
  final_block p ih len;
  put_h p p.blk;
  final_block p oh Sha256.digest_size;
  put_h p p.t

let key_midstate (p : pad_ctx) (fill : int) (dst : int array) : unit =
  for b = 0 to Sha256.block_size - 1 do
    let k = if b < Sha256.digest_size then Char.code (Bytes.get p.t b) else 0 in
    Bytes.set p.blk b (Char.unsafe_chr (k lxor fill))
  done;
  Array.blit Sha256.initial_state 0 dst 0 8;
  Sha256.compress_with p.w dst (Bytes.unsafe_to_string p.blk) 0

(* dst ^= pad(i, row), row = src[off, off+16) *)
let pad_xor (p : pad_ctx) (i : int) (src : Bytes.t) (off : int) (dst : Bytes.t) : unit =
  let len = Bytes.length dst in
  if len > 255 * Sha256.digest_size then invalid_arg "Ot_ext: pad too long";
  Bytes.blit src off p.blk 0 row_len;
  hmac_block p ~ih:zero_ipad ~oh:zero_opad row_len;
  key_midstate p 0x36 p.ih;
  key_midstate p 0x5c p.oh;
  let n = ref 1 and done_ = ref 0 in
  while !done_ < len do
    (* T(n) = HMAC(PRK, T(n-1) ‖ info ‖ n), T(0) empty *)
    let tl = if !n = 1 then 0 else Sha256.digest_size in
    Bytes.blit p.t 0 p.blk 0 tl;
    Bytes.blit_string "iknp-pad" 0 p.blk tl 8;
    Bytesx.set_be32 p.blk (tl + 8) i;
    Bytes.set p.blk (tl + 12) (Char.unsafe_chr !n);
    hmac_block p ~ih:p.ih ~oh:p.oh (tl + 13);
    let take = min Sha256.digest_size (len - !done_) in
    for b = 0 to take - 1 do
      let d = !done_ + b in
      Bytes.set dst d (Char.unsafe_chr (Char.code (Bytes.get dst d) lxor Char.code (Bytes.get p.t b)))
    done;
    done_ := !done_ + take;
    incr n
  done

let pad (i : int) (row : string) (len : int) : string =
  let out = Bytes.make len '\000' in
  pad_xor (pad_ctx ()) i (Bytes.of_string row) 0 out;
  Bytes.unsafe_to_string out

type r_ext = { rows_t : Bytes.t (* m rows of κ bits = 16B *) }
type u_matrix = { cols : string array (* κ columns of m bits *) }

(* Receiver: choices is a bit array of length m.  Produces the u-matrix to
   send to S and the per-row pads base. *)
let receiver_extend (base : r_base) ~(choices : int array) : r_ext * u_matrix =
  let m = Array.length choices in
  let m_bytes = (m + 7) / 8 in
  let r_str = Bytesx.string_of_bits choices in
  let t = Bytes.create (kappa * m_bytes) in
  let cols =
    Array.init kappa (fun j ->
        let tj = column_prg base.k0.(j) j m_bytes in
        Bytes.blit_string tj 0 t (j * m_bytes) m_bytes;
        Bytesx.xor (Bytesx.xor tj (column_prg base.k1.(j) j m_bytes)) r_str)
  in
  ({ rows_t = transpose t ~m_bytes }, { cols })

type s_ext = { rows_q : Bytes.t; s_row : Bytes.t }

let sender_extend (base : s_base) ~(u : u_matrix) ~(m : int) : s_ext =
  let m_bytes = (m + 7) / 8 in
  let q = Bytes.create (kappa * m_bytes) in
  for j = 0 to kappa - 1 do
    let prg = column_prg base.ks.(j) j m_bytes in
    let col = if base.s_bits.(j) = 1 then Bytesx.xor prg u.cols.(j) else prg in
    Bytes.blit_string col 0 q (j * m_bytes) m_bytes
  done;
  { rows_q = transpose q ~m_bytes; s_row = Bytes.of_string (Bytesx.string_of_bits base.s_bits) }

(* Sender encrypts message pairs; messages at index i must share a length. *)
let sender_encrypt (ext : s_ext) ~(pairs : (string * string) array) : (string * string) array =
  let p = pad_ctx () and qs = Bytes.create row_len in
  Array.mapi
    (fun i (m0, m1) ->
      if String.length m0 <> String.length m1 then invalid_arg "Ot_ext: length mismatch";
      let e0 = Bytes.of_string m0 and e1 = Bytes.of_string m1 in
      pad_xor p i ext.rows_q (row_len * i) e0;
      for b = 0 to row_len - 1 do
        Bytes.set qs b
          (Char.unsafe_chr
             (Char.code (Bytes.get ext.rows_q ((row_len * i) + b))
             lxor Char.code (Bytes.get ext.s_row b)))
      done;
      pad_xor p i qs 0 e1;
      (Bytes.unsafe_to_string e0, Bytes.unsafe_to_string e1))
    pairs

let receiver_recover (ext : r_ext) ~(choices : int array) ~(cipher : (string * string) array) :
    string array =
  let p = pad_ctx () in
  Array.mapi
    (fun i (e0, e1) ->
      let out = Bytes.of_string (if choices.(i) land 1 = 0 then e0 else e1) in
      pad_xor p i ext.rows_t (row_len * i) out;
      Bytes.unsafe_to_string out)
    cipher

(* Communication accounting helpers. *)
let u_matrix_bytes (u : u_matrix) : int =
  Array.fold_left (fun acc c -> acc + String.length c) 0 u.cols

(* Test hooks: the base-OT seeds and the u-matrix columns. *)
let r_base_seeds (b : r_base) : string array * string array = (b.k0, b.k1)
let s_base_seeds (b : s_base) : int array * string array = (b.s_bits, b.ks)
let u_matrix_columns (u : u_matrix) : string array = u.cols

(* Garbled circuits: free-XOR + point-and-permute + half-gates
   (Zahur–Rosulek–Evans), with SHA-256 as the label-derivation oracle.

   Cost model matches the classic accounting the paper's TOTP numbers are
   shaped by: two 16-byte ciphertexts per AND gate, nothing for XOR/NOT.

   NOTE (DESIGN.md §1): the paper uses *authenticated garbling* [Wang et
   al. 2017] for malicious security; this implementation is semi-honest
   Yao.  The substitution preserves the communication/latency shape that
   Figure 3 (right) and Table 6 report, at a smaller constant.

   Hot path (DESIGN.md "Garbling pipeline"): both the garbler and the
   evaluator keep every wire's label in one flat arena of 16 B × n_wires
   and write the tables into one 32 B × n_and buffer, XORing labels as
   two 64-bit words.  The oracle is a single SHA-256 compression over a
   reusable, pre-padded block, and the garbler hashes each of the four
   labels an AND gate touches once. *)

module Bytesx = Larch_util.Bytesx
module Circuit = Larch_circuit.Circuit
module Sha256 = Larch_hash.Sha256
open Circuit

let label_len = 16
let table_len = 2 * label_len

let lsb (s : string) : int = Char.code s.[label_len - 1] land 1

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* dst[d, d+16) <- x[i, i+16) ⊕ y[j, j+16) *)
let xor16 dst d x i y j =
  set64 dst d (Int64.logxor (get64 x i) (get64 y j));
  set64 dst (d + 8) (Int64.logxor (get64 x (i + 8)) (get64 y (j + 8)))

let copy16 dst d x i =
  set64 dst d (get64 x i);
  set64 dst (d + 8) (get64 x (i + 8))

(* The oracle H(label, j) = SHA-256("garble-h" ‖ label ‖ be32 j)[0, 16).
   The 28-byte message fits one block, so the block is laid out and padded
   once (0x80 at byte 28, the bit length 224 in its last byte) and each
   call rewrites only the label and j. *)
type oracle = { block : Bytes.t; w : int array; h : int array }

let oracle () =
  let block = Bytes.make Sha256.block_size '\000' in
  Bytes.blit_string "garble-h" 0 block 0 8;
  Bytes.set block 28 '\x80';
  Bytes.set block 63 (Char.chr 224);
  { block; w = Array.make 64 0; h = Array.make 8 0 }

(* out[o, o+16) <- H(src[s, s+16), j) *)
let hash_into (q : oracle) (src : Bytes.t) (s : int) (j : int) (out : Bytes.t) (o : int) : unit =
  copy16 q.block 8 src s;
  Bytesx.set_be32 q.block 24 j;
  Array.blit Sha256.initial_state 0 q.h 0 8;
  Sha256.compress_with q.w q.h (Bytes.unsafe_to_string q.block) 0;
  Bytesx.set_be32 out o q.h.(0);
  Bytesx.set_be32 out (o + 4) q.h.(1);
  Bytesx.set_be32 out (o + 8) q.h.(2);
  Bytesx.set_be32 out (o + 12) q.h.(3)

let lsb_at (b : Bytes.t) (o : int) : int = Char.code (Bytes.get b (o + label_len - 1)) land 1
let label_at (b : Bytes.t) (w : int) : string = Bytes.sub_string b (label_len * w) label_len

type garbling = {
  tables : string; (* T_G ‖ T_E per AND gate, in dense AND order *)
  const_labels : (int * string) list; (* gate wire index -> active label for Const gates *)
  input_zero : string array; (* zero-label of each input wire *)
  offset : string; (* global free-XOR offset R, lsb = 1 *)
  output_decode : int array; (* lsb of each output wire's zero-label *)
  output_zero : string array; (* zero-labels of output wires (garbler side) *)
}

(* Size of the material the garbler ships to the evaluator (tables + const
   labels + decode bits), excluding input labels. *)
let tables_bytes (g : garbling) : int =
  String.length g.tables
  + (List.length g.const_labels * (4 + label_len))
  + ((Array.length g.output_decode + 7) / 8)

(* The material itself, in wire order: T_G ‖ T_E per AND gate, be32 wire ‖
   active label per Const gate, then the output decode bits packed
   LSB-first. *)
let material (g : garbling) : string =
  let b = Buffer.create (tables_bytes g) in
  Buffer.add_string b g.tables;
  List.iter
    (fun (o, l) ->
      Buffer.add_string b (Bytesx.be32 o);
      Buffer.add_string b l)
    g.const_labels;
  Buffer.add_string b (Bytesx.string_of_bits g.output_decode);
  Buffer.contents b

let garble (c : Circuit.t) ~(rand_bytes : int -> string) : garbling =
  let offset =
    let r = Bytes.of_string (rand_bytes label_len) in
    Bytes.set r (label_len - 1) (Char.chr (Char.code (Bytes.get r (label_len - 1)) lor 1));
    Bytes.unsafe_to_string r
  in
  let r = Bytes.of_string offset in
  let zero = Bytes.create (label_len * Circuit.n_wires c) in
  for i = 0 to c.n_inputs - 1 do
    Bytes.blit_string (rand_bytes label_len) 0 zero (label_len * i) label_len
  done;
  let tables = Bytes.create (table_len * c.n_and) in
  let q = oracle () in
  (* H(wa0, j) ‖ H(wa1, j) ‖ H(wb0, j') ‖ H(wb1, j'), then wa1 ‖ wb1 *)
  let hs = Bytes.create (6 * label_len) in
  let const_labels = ref [] in
  for i = 0 to Array.length c.gates - 1 do
    let o = label_len * (c.n_inputs + i) in
    match c.gates.(i) with
    | Xor (a, b) -> xor16 zero o zero (label_len * a) zero (label_len * b)
    | Not a -> xor16 zero o zero (label_len * a) r 0
    | Const v ->
        (* fresh label; evaluator receives the active (= value v) label *)
        let w0 = rand_bytes label_len in
        Bytes.blit_string w0 0 zero o label_len;
        let active = if v then Bytesx.xor w0 offset else w0 in
        const_labels := (c.n_inputs + i, active) :: !const_labels
    | And (a, b) ->
        let k = c.and_index.(i) in
        let a = label_len * a and b = label_len * b and t = table_len * k in
        let pa = lsb_at zero a and pb = lsb_at zero b in
        xor16 hs 64 zero a r 0;
        xor16 hs 80 zero b r 0;
        hash_into q zero a (2 * k) hs 0;
        hash_into q hs 64 (2 * k) hs 16;
        hash_into q zero b ((2 * k) + 1) hs 32;
        hash_into q hs 80 ((2 * k) + 1) hs 48;
        (* generator half: T_G = H(wa0) ⊕ H(wa1) ⊕ pb·R, W_G0 = H(wa0) ⊕ pa·T_G *)
        xor16 tables t hs 0 hs 16;
        if pb = 1 then xor16 tables t tables t r 0;
        if pa = 1 then xor16 hs 0 hs 0 tables t;
        (* evaluator half: T_E = H(wb0) ⊕ H(wb1) ⊕ wa0, W_E0 = H(wb0) ⊕ pb·(T_E ⊕ wa0) *)
        xor16 tables (t + label_len) hs 32 hs 48;
        xor16 tables (t + label_len) tables (t + label_len) zero a;
        if pb = 1 then copy16 hs 32 hs 48;
        xor16 zero o hs 0 hs 32
  done;
  {
    tables = Bytes.unsafe_to_string tables;
    const_labels = List.rev !const_labels;
    input_zero = Array.init c.n_inputs (label_at zero);
    offset;
    output_decode = Array.map (fun o -> lsb_at zero (label_len * o)) c.outputs;
    output_zero = Array.map (label_at zero) c.outputs;
  }

(* Garbler side: the active label for input wire [i] carrying bit [v]. *)
let active_input (g : garbling) (i : int) (v : int) : string =
  if v land 1 = 0 then g.input_zero.(i) else Bytesx.xor g.input_zero.(i) g.offset

(* Evaluator: walk the circuit with active labels. *)
let evaluate (c : Circuit.t) ~(tables : string) ~(const_labels : (int * string) list)
    ~(active_inputs : string array) : string array =
  if Array.length active_inputs <> c.n_inputs then invalid_arg "Garble.evaluate: input count";
  if String.length tables <> table_len * c.n_and then invalid_arg "Garble.evaluate: table size";
  let label = Bytes.create (label_len * Circuit.n_wires c) in
  Array.iteri
    (fun i l ->
      if String.length l <> label_len then invalid_arg "Garble.evaluate: input label length";
      Bytes.blit_string l 0 label (label_len * i) label_len)
    active_inputs;
  let consts = Hashtbl.create 7 in
  List.iter (fun (o, l) -> Hashtbl.replace consts o l) const_labels;
  let tables = Bytes.unsafe_of_string tables (* read only *) in
  let q = oracle () in
  let hs = Bytes.create (2 * label_len) in
  for i = 0 to Array.length c.gates - 1 do
    let o = label_len * (c.n_inputs + i) in
    match c.gates.(i) with
    | Xor (a, b) -> xor16 label o label (label_len * a) label (label_len * b)
    | Not a -> copy16 label o label (label_len * a)
    | Const _ -> (
        match Hashtbl.find_opt consts (c.n_inputs + i) with
        | Some l when String.length l = label_len -> Bytes.blit_string l 0 label o label_len
        | Some _ -> invalid_arg "Garble.evaluate: const label length"
        | None -> invalid_arg "Garble.evaluate: missing const label")
    | And (a, b) ->
        let k = c.and_index.(i) in
        let a = label_len * a and b = label_len * b and t = table_len * k in
        hash_into q label a (2 * k) hs 0;
        hash_into q label b ((2 * k) + 1) hs label_len;
        (* W_G = H(wa) ⊕ sa·T_G, W_E = H(wb) ⊕ sb·(T_E ⊕ wa) *)
        if lsb_at label a = 1 then xor16 hs 0 hs 0 tables t;
        if lsb_at label b = 1 then begin
          xor16 hs label_len hs label_len tables (t + label_len);
          xor16 hs label_len hs label_len label a
        end;
        xor16 label o hs 0 hs label_len
  done;
  Array.map (label_at label) c.outputs

(* Decode output labels with the garbler's decode bits. *)
let decode_outputs (g : garbling) (active_out : string array) : int array =
  Array.mapi (fun i l -> lsb l lxor g.output_decode.(i)) active_out

(* Garbler-side decode of an active output label returned by the evaluator
   (checks it is one of the two valid labels).  Both comparisons always
   run, in constant time, so the timing says nothing about which label
   came back. *)
let garbler_decode (g : garbling) (i : int) (active : string) : int option =
  let is0 = Bytesx.ct_equal active g.output_zero.(i) in
  let is1 = Bytesx.ct_equal active (Bytesx.xor g.output_zero.(i) g.offset) in
  if is0 then Some 0 else if is1 then Some 1 else None

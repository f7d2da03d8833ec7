(* Byte-string helpers shared across the codebase.

   All protocol-level byte values are immutable [string]s; [Bytes.t] is only
   used transiently while building values. *)

let xor (a : string) (b : string) : string =
  if String.length a <> String.length b then invalid_arg "Bytesx.xor: length mismatch";
  let out = Bytes.create (String.length a) in
  for i = 0 to String.length a - 1 do
    Bytes.set out i (Char.chr (Char.code a.[i] lxor Char.code b.[i]))
  done;
  Bytes.unsafe_to_string out

(* Constant-time equality: the running time depends only on the lengths. *)
let ct_equal (a : string) (b : string) : bool =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let get_bit (s : string) (i : int) : int =
  (Char.code s.[i lsr 3] lsr (i land 7)) land 1

let set_bit (b : Bytes.t) (i : int) (v : int) : unit =
  let cur = Char.code (Bytes.get b (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let cur = if v land 1 = 1 then cur lor mask else cur land lnot mask in
  Bytes.set b (i lsr 3) (Char.chr cur)

(* Bits are numbered LSB-first within each byte, matching [get_bit]. *)
let bits_of_string (s : string) : int array =
  Array.init (8 * String.length s) (fun i -> get_bit s i)

let string_of_bits (bits : int array) : string =
  let n = Array.length bits in
  let out = Bytes.make ((n + 7) / 8) '\000' in
  Array.iteri (fun i v -> if v land 1 = 1 then set_bit out i 1) bits;
  Bytes.unsafe_to_string out

let be32 (v : int) : string =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((v lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((v lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((v lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (v land 0xff);
  Bytes.unsafe_to_string b

(* In place, allocation-free: [v]'s low 32 bits, big-endian, at [off]. *)
let set_be32 (b : Bytes.t) (off : int) (v : int) : unit =
  Bytes.set b off (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.unsafe_chr (v land 0xff))

let be64 (v : int64) : string =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.unsafe_to_string b

let concat = String.concat ""

(* Fixed-size human-readable sizes used by the bench harness. *)
let pp_bytes_human fmt (n : float) =
  if n >= 1024. *. 1024. then Fmt.pf fmt "%.2f MiB" (n /. (1024. *. 1024.))
  else if n >= 1024. then Fmt.pf fmt "%.2f KiB" (n /. 1024.)
  else Fmt.pf fmt "%.0f B" n

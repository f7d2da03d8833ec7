(** Garbled circuits: free-XOR + point-and-permute + half-gates
    (Zahur–Rosulek–Evans), SHA-256 as the label-derivation oracle.

    Two 16-byte ciphertexts per AND gate; XOR/NOT are free.  Semi-honest —
    the paper uses authenticated garbling for malicious security; see
    DESIGN.md §1 for why the substitution preserves the reported shapes.
    Both sides run over flat label and table buffers; DESIGN.md "Garbling
    pipeline" gives the layout. *)

module Circuit = Larch_circuit.Circuit

val label_len : int

type garbling = {
  tables : string; (** T_G ‖ T_E (16 B each) per AND gate, in dense AND order *)
  const_labels : (int * string) list; (** active labels of Const wires *)
  input_zero : string array; (** zero-label per input wire (garbler secret) *)
  offset : string; (** the global free-XOR offset R (garbler secret) *)
  output_decode : int array; (** permute bits for output decoding *)
  output_zero : string array; (** output zero-labels (garbler secret) *)
}

val garble : Circuit.t -> rand_bytes:(int -> string) -> garbling

val tables_bytes : garbling -> int
(** Bytes shipped to the evaluator (tables + const labels + decode bits). *)

val material : garbling -> string
(** The shipped material itself, [tables_bytes] long: T_G ‖ T_E per AND
    gate, then be32 wire ‖ active label per Const gate, then the output
    decode bits packed LSB-first. *)

val active_input : garbling -> int -> int -> string
(** The label for input wire [i] carrying bit [v] (garbler side). *)

val evaluate :
  Circuit.t ->
  tables:string ->
  const_labels:(int * string) list ->
  active_inputs:string array ->
  string array
(** Evaluator: walk the circuit with active labels; returns the active
    output labels. *)

val decode_outputs : garbling -> string array -> int array

val garbler_decode : garbling -> int -> string -> int option
(** Decode an output label returned by the evaluator; [None] means the
    label is not one of the two valid ones (evaluator cheating).  Compares
    in constant time against both valid labels. *)

(**/**)

val lsb : string -> int

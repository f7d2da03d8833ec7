(** Byte-string helpers.  Protocol byte values are immutable [string]s;
    [Bytes.t] appears only transiently while building values. *)

val xor : string -> string -> string
(** @raise Invalid_argument on length mismatch *)

val ct_equal : string -> string -> bool
(** Constant-time equality (time depends only on lengths). *)

(** {1 Bit access — LSB-first within each byte} *)

val get_bit : string -> int -> int
val set_bit : Bytes.t -> int -> int -> unit
val bits_of_string : string -> int array
val string_of_bits : int array -> string

(** {1 Fixed-width big-endian integers} *)

val be32 : int -> string
val be64 : int64 -> string

val set_be32 : Bytes.t -> int -> int -> unit
(** [set_be32 b off v] writes the low 32 bits of [v] big-endian at [off],
    without allocating. *)

val concat : string list -> string
val pp_bytes_human : Format.formatter -> float -> unit

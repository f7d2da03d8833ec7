(** IKNP oblivious-transfer extension (semi-honest): κ = 128 public-key
    base OTs amortize into arbitrarily many symmetric-crypto OTs.  Delivers
    the log's garbled-circuit input labels in the TOTP protocol; the base
    OTs are paid in the offline phase. *)

val kappa : int

(** {1 Base-OT phase (roles reversed: extension receiver = base sender)} *)

type r_base
type s_base

val run_base_ots :
  rand_bytes_r:(int -> string) -> rand_bytes_s:(int -> string) -> r_base * s_base * int
(** Returns each side's retained state plus the bytes exchanged;
    [base_ots (draw_base_ots ...)]. *)

type base_draws
(** Every random value the κ base OTs consume. *)

val draw_base_ots : rand_bytes_r:(int -> string) -> rand_bytes_s:(int -> string) -> base_draws
(** Make all the base OTs' DRBG draws, each party's in the order the
    interleaved protocol makes them (R: a, k0[], k1[]; S: s[], b_0 … b_127),
    so the streams are left exactly where {!run_base_ots} leaves them. *)

val base_ots : base_draws -> r_base * s_base * int
(** The group arithmetic and key derivation over the draws.  Touches no
    DRBG, channel, clock or runtime, so it may run on another domain
    while the caller keeps drawing from the same DRBGs. *)

(** {1 Extension phase} *)

type r_ext
type u_matrix

val receiver_extend : r_base -> choices:int array -> r_ext * u_matrix
(** The receiver's per-OT choice bits produce the u-matrix sent to the
    sender. *)

type s_ext

val sender_extend : s_base -> u:u_matrix -> m:int -> s_ext

val sender_encrypt : s_ext -> pairs:(string * string) array -> (string * string) array
(** Encrypt message pairs; pair i's two messages must share a length.  The
    pads are HKDF-SHA256 of the rows, computed from precomputed zero-salt
    HMAC midstates without per-pad allocation. *)

val receiver_recover :
  r_ext -> choices:int array -> cipher:(string * string) array -> string array

val u_matrix_bytes : u_matrix -> int

(**/**)

val column_prg : string -> int -> int -> string
val pad : int -> string -> int -> string
val r_base_seeds : r_base -> string array * string array
(** (k0, k1): the base sender's κ seed pairs. *)

val s_base_seeds : s_base -> int array * string array
(** (s_bits, ks): the base receiver's selection bits and chosen seeds. *)

val u_matrix_columns : u_matrix -> string array

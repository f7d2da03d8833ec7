(** SHA-256 (FIPS 180-4) — the root of trust for commitments, signing
    digests, HMAC, the DRBG, and the in-circuit statements (the gate-level
    SHA-256 is tested against this module). *)

val digest_size : int
val block_size : int

val digest : string -> string
val digest_list : string list -> string

(** {1 Streaming} *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
val finish : ctx -> string

val reset : ctx -> unit
(** Return the context to the freshly-initialized state, keeping its
    scratch buffers — one context can stream many digests (ZKBoo hashes
    411 view commitments per proof through a single context). *)

val feed_sub : ctx -> string -> pos:int -> len:int -> unit
(** Feed a substring without copying it out first. *)

val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Feed from a (reusable) byte buffer without copies; the bytes are
    consumed before the call returns, so the buffer may be overwritten
    afterwards. *)

(**/**)

val k : int array
val initial_state : int array
val compress : int array -> string -> int -> unit

val compress_with : int array -> int array -> string -> int -> unit
(** [compress_with w h block off]: one compression of the 64-byte block at
    [off] into the state [h], with [w] (64 ints) as message-schedule
    scratch — allocation-free, for callers that lay out and pad their own
    blocks (the garbling oracle, the IKNP pads). *)

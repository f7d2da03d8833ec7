(** The seeded-world harness (DESIGN.md §12).

    Every deterministic scenario — the [larch faults|swarm|overload|report|
    audit|fsck|recover] worlds, the swarm and fault test matrices, the
    swarm bench — is a function of one seed: one HMAC-DRBG, the simulated
    clock, a seeded faultable disk.  A world supplies its protocol mix,
    cadences, fault profile and oracles and writes its transcript with
    {!line}; {!run} digests it and {!twice} is the run-twice CLI driver. *)

type t = { rand : int -> string; out : Buffer.t (** the transcript *) }

val base_time : float
(** The simulated clock's start, 1 700 000 000. *)

val run : ?events:bool -> entropy:string -> (t -> 'a) -> 'a * string
(** [run ~entropy body] sets the simulated clock to {!base_time}, makes it the
    observability time source, switches the event stream to [events]
    (default off; cleared when on), resets the transport ordinals, and
    calls [body] with a DRBG over [entropy] and an empty transcript.
    Returns [body]'s result and the transcript's hex SHA-256.  Whether
    [body] returns or raises, the clock goes back to real time, the time
    source is unset and events are off.  Not reentrant. *)

val line : t -> ('a, unit, string, unit) format4 -> 'a
(** Append one line to the transcript. *)

val digest : string -> string
(** Hex SHA-256. *)

val store_dir : string
(** Where {!store_log} keeps the log's store on its disk (["log"]). *)

val store_log :
  ?checkpoint_every:int -> ?objection_window:float -> seed:string -> (int -> string) ->
  Larch_store.Disk.t * Log_service.t
(** A log over a store on a fresh disk whose crash fates [seed] draws. *)

val generation : Log_service.t -> int
(** The current generation of a store-backed log's store. *)

(** {1 Sessions} *)

type proto = Fido2 | Totp | Password

val proto_name : proto -> string

val client :
  ?policy:Larch_net.Transport.policy -> ?net:Larch_net.Netsim.t -> ?async:Log_async.t ->
  ?password:string -> rand:(int -> string) -> Log_service.t -> string -> Client.t
(** Create a client (account password default ["pw"]) and attach its
    transport to the [async] admission loop, if any. *)

val register : Client.t -> Relying_party.t -> proto -> unit -> unit
(** Register at the relying party (username = client id) and return the
    login: authenticate, then the relying party checks the FIDO2
    assertion or password ([Failure] if it refuses; TOTP codes go
    unchecked). *)

val session :
  ?policy:Larch_net.Transport.policy -> ?net:Larch_net.Netsim.t -> ?async:Log_async.t ->
  ?password:string -> ?rp_name:string -> rand:(int -> string) -> Log_service.t -> string ->
  presignatures:int -> proto list -> Client.t * (proto -> unit)
(** {!client}, enroll, create relying party [rp_name] (default
    ["rp.example"]) and {!register} each protocol in order; the second
    result logs in with a registered protocol. *)

(** {1 Outcomes and footers} *)

type outcome =
  | Completed
  | Transport_error of Larch_net.Transport.error
  | Protocol_error of string
  | Log_misbehaved of string

val attempt : (unit -> unit) -> outcome
(** Type an operation's end.  These are the only acceptable ends under
    injected faults: any other exception propagates. *)

val disk_counts : ?rot:bool -> Larch_store.Disk.t -> string
(** ["appends=… fsyncs=… bytes=… crashes=…"], then [" torn=… rotted=…"]
    unless [rot] is [false]. *)

val fsck : Log_service.t -> Log_persist.fsck
(** @raise Invalid_argument if the log has no store *)

val verdict : Log_persist.fsck -> string
(** ["clean"] or ["DIRTY"]. *)

val issues : Log_persist.fsck -> string
(** [""], or a space and the issues joined by ["; "]. *)

val fsck_line : ?gen:bool -> Log_service.t -> Log_persist.fsck -> string
(** ["fsck clean: [gen=… ]wal_ops=… clients=…"] plus {!issues}. *)

val admission_line : Log_async.t -> string
(** ["admission batches=… batched_reqs=…"]. *)

(** {1 The run-twice driver} *)

val guard : (unit -> int) -> int
(** Run a CLI command; a {!Larch_runtime.Runtime.Deadlock} prints the
    stuck fibers to stderr and returns exit code 2. *)

val twice :
  reproduce:string -> ?ok:('a -> bool) -> show:('a -> unit) -> (unit -> 'a * string) -> int
(** Run a world twice under {!guard}, [show] run 1's result, print both
    digests and the verdict: 0 (and the [reproduce] command line) when
    the digests match and [ok] holds for run 1, else 1. *)

(** Splitting trust across multiple log services (§6).

    Enroll with n logs, authenticate with any t, audit completely with any
    n − t + 1.  Fully implemented for passwords via Shamir sharing of the
    log-side Diffie-Hellman key with recombination in the exponent; FIDO2
    and TOTP generalize via threshold ECDSA / multi-party GC (the paper
    defers to existing protocols).

    Every log sits behind its own {!Larch_net.Transport}: logs can be taken
    down administratively or given fault injectors, and authentication
    fails over mid-flight to any other online t-subset. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Shamir = Larch_mpc.Shamir
module Transport = Larch_net.Transport

type t = {
  logs : Log_service.t array;
  transports : Transport.t array; (** one per log, labelled ["log<i>"] *)
  threshold : int;
  online : bool array;
  rand : int -> string;
}

val create :
  ?policy:Transport.policy ->
  ?net:Larch_net.Netsim.t ->
  ?disk:Larch_store.Disk.t ->
  ?checkpoint_every:int ->
  n:int ->
  threshold:int ->
  rand_bytes:(int -> string) ->
  unit ->
  t
(** With [disk], each of the n logs opens an independent
    {!Larch_store.Store} in its own directory ([log0/], [log1/], …) on the
    shared disk, so a transport-injected restart of one log is a genuine
    kill-and-recover that leaves its peers untouched. *)

val n_logs : t -> int

val set_online : t -> int -> bool -> unit
(** Availability simulation: mark log [i] up or down (administratively —
    the transport fails fast without retrying). *)

val set_injector : t -> int -> Larch_net.Fault.t option -> unit
(** Install (or clear) a fault injector on log [i]'s transport. *)

val online_indices : t -> int list

(** Client-side multi-log password state. *)
type client = {
  client_id : string;
  account_password : string;
  x : Scalar.t;
  x_pub : Point.t;
  k_pub : Point.t; (** K = g^k for the joint (dealt) key *)
  mutable ids : string list;
  creds : (string, string * Point.t) Hashtbl.t;
  names : (string, string) Hashtbl.t;
}

exception Unavailable of string

val enroll : t -> client_id:string -> account_password:string -> client
(** One-time enrollment with all n logs; the client deals Shamir shares of
    the joint key and deletes it.  If any log is unreachable the
    already-enrolled logs are rolled back (best-effort revocation) and the
    transport error is re-raised, leaving the client re-enrollable. *)

val revoke : t -> client -> unit
(** Best-effort revocation at every reachable log; clears the client's
    credential maps so a fresh {!enroll} can follow. *)

val register : t -> client -> rp_name:string -> string
(** Register at every log (so identifier sets stay aligned); returns the
    password for the relying party.  A failure partway unregisters the
    identifier from the logs that already stored it. *)

val authenticate : t -> client -> rp_name:string -> now:float -> string
(** Authenticate against any t reachable logs, failing over past logs
    whose transport gives up (each failover emits a
    {!Larch_obs.Events.Failover} event).
    @raise Unavailable when fewer than t logs answer *)

type audit_result = {
  entries : (float * string option) list;
  complete : bool; (** guaranteed-complete iff ≥ n − t + 1 logs reachable *)
}

val audit : t -> client -> audit_result
(** Union of reachable logs' records, deduplicated by ciphertext;
    unreachable logs are skipped and counted against [complete]. *)

(** Cross-replica tree-head comparison.  Honest replicas hold identical
    record sequences, so every pair of reachable logs must be
    prefix-consistent.  [suspects] lists logs implicated by at least two
    bad pairs (with ≥3 reachable replicas this localizes a single forked
    log) or by an invalid head signature. *)
type split_view = {
  heads : (int * Larch_merkle.Merkle.Sth.t) list;
      (** reachable logs and their signature-verified heads *)
  checked_pairs : int;
  bad_pairs : (int * int) list;
      (** pairs whose trees are not prefix-consistent *)
  suspects : int list;
}

val check_split_view : t -> client -> split_view
(** Fetch every reachable log's signed head, then pairwise ask the log
    with the larger tree to prove it extends the smaller; emits a
    [Warn]-severity event per inconsistent pair. *)

(** The larch log service.

    Stores per-client state for all three authentication methods, verifies
    the client's proofs before contributing to any credential, records every
    authentication as a ciphertext it cannot read, and serves audit
    downloads.  Sensitive operations (audit, revocation, objections, policy
    changes) require the user's log-account credential (§2.1).

    State types are exposed for the test suite, which exercises malicious
    behaviour on both sides of every protocol.  They live in {!Log_state}
    (and are re-exported here), which also defines the logical operations
    this module commits; with a {!Larch_store.Store} attached at [create],
    every committed operation is appended to a write-ahead log and
    group-committed before the call returns, and {!restart} becomes a
    genuine kill-and-recover. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Tpe = Two_party_ecdsa
module Merkle = Larch_merkle.Merkle

(** Client-specific authentication policy (§9 "Enforcing client-specific
    policies"): optional rate limit per time window and an optional
    notification hook invoked on every authentication. *)
type policy = Log_state.policy = {
  max_auths_per_window : int option;
  window_seconds : float;
  notify : (Types.auth_method -> float -> unit) option;
}

val default_policy : policy

(** Log-side FIDO2 state: the archive-key commitment from enrollment, the
    client's record-integrity verification key, the log's long-term signing
    share, active and objection-staged presignature batches, and the
    in-flight signing session. *)
type fido2_state = Log_state.fido2_state = {
  cm : string;
  record_vk : Point.t;
  key : Tpe.log_key;
  mutable batches : Tpe.log_batch list;
  mutable pending : (Tpe.log_batch * float) list;
  mutable signing : Tpe.party_state option;
  mutable signing_record : Record.t option;
  mutable client_commit : Larch_mpc.Spdz.open_commit option;
}

type totp_state = Log_state.totp_state = {
  cm_totp : string;
  mutable registrations : Totp_protocol.registration list;
  mutable last_auth : (string * Totp_protocol.outcome) option;
      (** (nonce, outcome) of the last 2PC: retransmission replay dedup *)
}

type pw_state = Log_state.pw_state = {
  client_pub : Point.t; (** the client's ElGamal archive public key X *)
  k : Scalar.t; (** the log's per-client Diffie-Hellman secret *)
  k_pub : Point.t;
  mutable ids : string list; (** registration order = the GK15 statement set *)
}

type client_state = Log_state.client_state = {
  account_token : string;
  mutable fido2 : fido2_state option;
  mutable totp : totp_state option;
  mutable pw : pw_state option;
  mutable records : Record.t list; (** newest first *)
  mutable policy : policy;
  mutable recent_auths : float list;
  mutable backup : string option; (** opaque encrypted client-state blob (§9) *)
  mutable last_migrate : string option; (** δ of the last key migration (retry dedup) *)
  mutable tree : Merkle.Tree.t;
      (** RFC 6962 Merkle tree over the records (oldest first): the one
          tamper-evidence structure.  Derived state: never serialized,
          rebuilt from the records on recovery. *)
}

type t = {
  clients : Log_state.clients;
  rand : int -> string;
  objection_window : float; (** seconds before staged presignatures activate *)
  persist : Log_persist.t option; (** [None]: purely in-memory (tests, benches) *)
  sth_sk : Scalar.t;
      (** the log's tree-head signing key — held like an HSM key: drawn at
          [create], survives {!restart}, never serialized *)
  sth_pk : Point.t;
  preverified : (string, unit) Hashtbl.t;
      (** one-shot skip tokens from the admission loop's batched signature
          verification (see {!preverify_record_sig}); volatile *)
  mutable degraded : bool;
      (** brownout mode (set by the admission loop): attestations skip
          their inclusion proof and say so.  Volatile, never persisted,
          and never changes what the log accepts or rejects. *)
}

val create :
  ?objection_window:float ->
  ?checkpoint_every:int ->
  ?store:Larch_store.Store.t ->
  rand_bytes:(int -> string) ->
  unit ->
  t
(** With [store], the client map is recovered from it (snapshot + WAL
    replay) and every subsequent mutation is made durable before the call
    that performed it returns.  [checkpoint_every] (default 128) bounds
    how many WAL records accumulate before the full state is snapshotted
    into a fresh generation. *)

val persist : t -> Log_persist.t option

val sth_pub : t -> Point.t
(** The tree-head verification key clients pin at enrollment. *)

val set_degraded : t -> bool -> unit
(** Enter/leave brownout mode (the admission loop's knob, see
    {!Log_async}).  While set, {!attestation}s are issued without an
    inclusion proof and flagged [degraded]; the accept/reject behavior of
    every operation is unchanged. *)

val degraded : t -> bool

(** {1 The transparency layer (§9 fork consistency)} *)

(** Proof that an authentication's record landed in the client's record
    tree: the leaf index, the record exactly as stored, the inclusion
    path, and the signed tree head it verifies against.  Every auth ack
    carries one.  Under brownout ([degraded = true]) the proof is empty:
    the signed head and record still bind the authentication, and the
    client defers inclusion verification to its next verified audit. *)
type attestation = {
  index : int;
  record : string; (** canonical record encoding = the tree leaf *)
  proof : string list;
  sth : Merkle.Sth.t;
  degraded : bool;
}

val put_attestation : Larch_net.Wire.writer -> attestation -> unit

val read_attestation : Larch_net.Wire.reader -> attestation
(** @raise Larch_net.Wire.Malformed on hostile input *)

val encode_attestation : attestation -> string
val decode_attestation : string -> (attestation, string) result

val fsck : t -> Log_persist.fsck option
(** Verify the attached store — structural checksums plus the semantic
    invariants (Merkle tree matches the stored records, presignature
    cursor monotonicity, live-vs-replayed state match).  [None] without a store. *)

(** {1 Enrollment} *)

val enroll : t -> client_id:string -> account_password:string -> unit
(** Idempotent for a retransmission from the same account holder (same
    credential); a different credential for an existing client still
    fails. *)

val set_policy : t -> client_id:string -> token:string -> policy -> unit

val enroll_fido2 :
  t -> client_id:string -> cm:string -> record_vk:Point.t -> batch:Tpe.log_batch -> Point.t
(** Returns the log's signing public key X, from which the client derives
    per-relying-party keys. *)

val enroll_totp : t -> client_id:string -> cm:string -> unit

val enroll_password : t -> client_id:string -> client_pub:Point.t -> Point.t
(** Returns the log's Diffie-Hellman public key K = g^k. *)

val enroll_password_share :
  t -> client_id:string -> client_pub:Point.t -> k_share:Scalar.t -> Point.t
(** Multi-log variant (§6): enroll with a dealt Shamir share of the joint
    key instead of a locally sampled one. *)

(** {1 Presignature inventory (§3.3)} *)

val presignatures_remaining : t -> client_id:string -> int
val stage_presignatures : t -> client_id:string -> batch:Tpe.log_batch -> now:float -> unit

val activate_pending : t -> client_id:string -> now:float -> int
(** Promote staged batches whose objection window has elapsed; returns how
    many were activated. *)

val object_to_pending : t -> client_id:string -> token:string -> int
(** The account owner disavows all staged batches. *)

val pending_batches : t -> client_id:string -> (int * float) list
(** Audit view: (size, activation time) of each staged batch. *)

(** {1 FIDO2 authentication (three rounds)} *)

val fido2_auth_begin :
  ?domains:int ->
  t ->
  client_id:string ->
  ip:string ->
  now:float ->
  Fido2_protocol.auth_request ->
  Fido2_protocol.auth_response1
(** Round 1: enforce policy, verify the record signature and the ZKBoo
    statement, consume the next presignature, stage the encrypted record,
    and answer with the log's signing message and s-share.
    @raise Types.Protocol_error on any check failure *)

val fido2_auth_commit :
  t ->
  client_id:string ->
  s1:Scalar.t ->
  client_commit:Larch_mpc.Spdz.open_commit ->
  Larch_mpc.Spdz.open_commit * Larch_mpc.Spdz.open_reveal * attestation
(** Round 2: persist the record, exchange MAC-check commitments; the
    attestation proves the record is in the client's tree. *)

val fido2_auth_finish :
  t -> client_id:string -> client_reveal:Larch_mpc.Spdz.open_reveal -> bool
(** Round 3: check the client's MAC opening; [false] flags a cheating
    client (the stored record remains as an attack trace). *)

val fido2_auth_abort : t -> client_id:string -> consumed:int -> unit
(** Abandon an in-flight signing session after a transport failure: the
    volatile session state is discarded and the presignature cursors are
    burned {e forward} to [consumed] (the client's own total) — never
    backward, since a presignature whose round-1 message may have leaked
    must not be reused. *)

val record_verify_key : t -> client_id:string -> Larch_ec.Point.t option
(** The client's record-integrity verification key (once FIDO2-enrolled):
    what the admission loop's batch signature verification checks
    against. *)

val preverify_record_sig :
  t -> client_id:string -> ct_nonce:string -> ct:string -> record_sig:string -> unit
(** Deposit a one-shot skip token: the admission loop verified this exact
    record signature inside a batched Pippenger pass, so the matching
    {!fido2_auth_begin} may skip its individual check.  Tokens are keyed
    by a hash of (client, ciphertext, signature), are consumed on use,
    and do not survive {!restart} — an unverified signature can never
    ride a stale token. *)

val restart : t -> unit
(** A log-process restart.  With a store attached this is a genuine kill:
    the in-memory disk drops whatever was never fsynced (per its failure
    profile) and the client map is rebuilt from the snapshot + WAL alone.
    Without one, durable state survives in memory and only volatile
    in-flight session state is dropped.  {!Larch_net.Transport.on_restart}
    hooks call this. *)

(** {1 TOTP} *)

val totp_register : t -> client_id:string -> Totp_protocol.registration -> unit
val totp_unregister : t -> client_id:string -> token:string -> id:string -> bool
val totp_registration_count : t -> client_id:string -> int

val totp_auth :
  t ->
  client_id:string ->
  ip:string ->
  now:float ->
  enc_nonce:string ->
  run:
    (cm:string ->
    registrations:(string * string) list ->
    rand_log:(int -> string) ->
    Totp_protocol.outcome) ->
  Totp_protocol.outcome * attestation
(** Execute the joint 2PC: the [run] closure receives the log's private
    inputs (its stored commitment and key shares) and returns the Yao
    outcome; the record is stored iff the circuit's validity bit is set.
    The attestation proves the stored record is in the client's tree.
    @raise Types.Protocol_error if the validity bit is 0 *)

(** {1 Passwords} *)

val pw_register : t -> client_id:string -> id:string -> Point.t
(** Store the identifier, reply with Hash(id)^k. *)

val pw_registered_ids : t -> client_id:string -> string list

val pw_unregister : t -> client_id:string -> token:string -> id:string -> bool
(** Roll back a registration that failed partway across a multi-log
    deployment; [true] if the identifier was present. *)

val pw_auth :
  t ->
  client_id:string ->
  ip:string ->
  now:float ->
  Password_protocol.auth_request ->
  Point.t * Larch_sigma.Dleq.proof * attestation
(** Verify both one-out-of-many proofs, store the ElGamal record, reply
    with c₂^k plus a DLEQ proof of correct exponentiation and an
    inclusion attestation for the stored record.
    @raise Types.Protocol_error if either proof fails *)

(** {1 Auditing, revocation, migration} *)

val audit : t -> client_id:string -> token:string -> Record.t list

(** Everything an auditing client needs to extend its verified view. *)
type audit_response = {
  records : Record.t list; (** the delta, oldest first *)
  since : int; (** tree size the delta starts at (clamped; echoes the request) *)
  sth : Merkle.Sth.t;
  consistency : string list; (** proof from [since] to [sth.size] *)
  proofs : string list list; (** inclusion proof per delta record *)
}

val put_audit_response : Larch_net.Wire.writer -> audit_response -> unit

val read_audit_response : Larch_net.Wire.reader -> audit_response
(** @raise Larch_net.Wire.Malformed on hostile input *)

val encode_audit_response : audit_response -> string
val decode_audit_response : string -> (audit_response, string) result

val audit_with_head : ?since:int -> t -> client_id:string -> token:string -> audit_response
(** Audit from tree size [since] (default 0): the record delta, a fresh
    STH, a consistency proof [since] → head, and an inclusion proof per
    record.  A [since] the log cannot serve (after a prune, or from a
    different fork) is clamped to 0 and the full history returned. *)

val tree_head : t -> client_id:string -> token:string -> Merkle.Sth.t
(** The signed head alone — what a multilog cross-check fetches. *)

val consistency_proof : t -> client_id:string -> token:string -> old_size:int -> string list
(** Prove the current tree extends the [old_size] prefix a verifier
    remembers.
    @raise Types.Protocol_error if [old_size] exceeds the tree *)

val prune_records : t -> client_id:string -> token:string -> older_than:float -> int
val revoke_all : t -> client_id:string -> token:string -> unit
val migrate_fido2 : t -> client_id:string -> token:string -> delta:Scalar.t -> unit

(** {1 Encrypted state backups (§9 account recovery)} *)

val store_backup : t -> client_id:string -> string -> unit

val fetch_backup : t -> client_id:string -> string option
(** No account token needed: the blob is self-protecting authenticated
    ciphertext, and the requester has by definition lost her devices. *)

(** {1 Storage accounting (Figure 4, left)} *)

type storage = { presig_bytes : int; record_bytes : int }

val storage : t -> client_id:string -> storage

(**/**)

val get_client : t -> string -> client_state
val check_token : client_state -> string -> unit
(* Pure rate-limit check; [client_id], when given, names the client in any
   [Policy_denied] event.  Committing the [Charge] op is the caller's job. *)
val check_policy :
  ?client_id:string -> client_state -> method_:Types.auth_method -> now:float -> unit
val fido2_state : client_state -> fido2_state
val totp_state : client_state -> totp_state
val pw_state : client_state -> pw_state

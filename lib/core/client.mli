(** The larch client ("browser extension" role).

    Owns the user's authentication secrets — archive keys, per-relying-party
    key shares, presignatures — and drives the four protocol operations of
    the paper's §2.2 against a {!Log_service}: enrollment, registration,
    authentication, and auditing.

    All client↔log traffic is serialized through the real wire codecs and
    metered on {!val:channel_snapshot}'s channels, so communication figures
    are exact.  State fields are exposed (rather than abstract) because the
    test suite plays the role of an attacker holding full device state. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Channel = Larch_net.Channel
module Transport = Larch_net.Transport
module Tpe = Two_party_ecdsa
module Statements = Larch_circuit.Larch_statements
module Bytesx = Larch_util.Bytesx
module Merkle = Larch_merkle.Merkle

(** Per-relying-party FIDO2 credential: the client's signing-key share [y],
    the aggregated public key [pk] = X·g^y registered at the relying party,
    and the WebAuthn signature counter. *)
type fido2_cred = { y : Scalar.t; pk : Point.t; mutable counter : int }

(** Per-relying-party TOTP credential: random registration identifier [tid]
    and the client's XOR-share [kclient] of the TOTP key. *)
type totp_cred = { tid : string; kclient : string; algo : Larch_auth.Totp.algo }

(** Per-relying-party password credential: registration identifier [pid] and
    the client's multiplicative share [k_id] of the password group element. *)
type pw_cred = { pid : string; k_id : Point.t }

(** FIDO2-side client state: archive key [fk] with commitment nonce [fr],
    the record-integrity signing key (§7 optimization), the log's signing
    public key X, unconsumed presignature batches, and the credential /
    rp-hash→name maps used during authentication and auditing. *)
type fido2_side = {
  fk : string;
  fr : string;
  record_sk : Scalar.t;
  log_pub : Point.t;
  mutable batches : Tpe.client_batch list;
  fido2_creds : (string, fido2_cred) Hashtbl.t;
  fido2_names : (string, string) Hashtbl.t;
}

(** TOTP-side client state: its own archive key/nonce and credential maps. *)
type totp_side = {
  tk : string;
  tr : string;
  totp_creds : (string, totp_cred) Hashtbl.t;
  totp_names : (string, string) Hashtbl.t;
}

(** Password-side client state: the ElGamal archive keypair (x, X), the
    log's Diffie-Hellman public key K, and the registration-ordered
    identifier list that must mirror the log's. *)
type pw_side = {
  x : Scalar.t;
  x_pub : Point.t;
  log_k_pub : Point.t;
  mutable pw_ids : string list;
  pw_creds : (string, pw_cred) Hashtbl.t;
  pw_names : (string, string) Hashtbl.t;
}

type t = {
  client_id : string;
  account_password : string; (** the log-account credential (§2.1) *)
  rand : int -> string;
  log : Log_service.t;
  chan : Channel.t; (** metered client↔log traffic other than the TOTP 2PC (label ["log"]) *)
  transport : Transport.t; (** fault/retry layer wrapping [chan] *)
  totp_offline : Channel.t; (** metered TOTP offline-phase traffic *)
  totp_online : Channel.t; (** metered TOTP online-phase traffic *)
  mutable ip : string; (** source address recorded by the log *)
  mutable domains : int;
      (** client cores: ZKBoo proving, and the TOTP base OTs overlapped
          with garbling *)
  mutable fido2 : fido2_side option;
  mutable totp : totp_side option;
  mutable pw : pw_side option;
  sth_pub : Point.t;
      (** the log's tree-head verification key, pinned at {!create} *)
  mutable last_sth : Merkle.Sth.t option;
      (** last signed tree head verified by {!audit_verified} *)
  mutable audited : Record.t list;
      (** records covered by [last_sth], oldest first — the delta base for
          the next incremental audit *)
  mutable dirty : bool;
      (** a faulty exchange may have left the log's volatile session state
          out of step; the next operation resynchronizes first *)
  mutable att_deferred : bool;
      (** a brownout-degraded attestation was accepted without its
          inclusion proof; cleared only once {!audit_verified} has
          discharged every entry of [att_pending] *)
  mutable att_pending : (int * string) list;
      (** (leaf index, record bytes) of each accepted degraded
          attestation: the next {!audit_verified} fast path must find
          exactly these bytes at these leaves — and errors otherwise —
          before [att_deferred] clears, so a log that acked under
          brownout without appending the record is caught one audit
          later *)
}

val create :
  ?policy:Transport.policy ->
  ?net:Larch_net.Netsim.t ->
  client_id:string ->
  account_password:string ->
  log:Log_service.t ->
  rand_bytes:(int -> string) ->
  unit ->
  t
(** A fresh, unenrolled client bound to a log service.  [rand_bytes] is the
    randomness source (see {!Larch_hash.Drbg.system}).  [policy] sets the
    transport retry policy (default {!Transport.default_policy}); [net]
    models link latency/bandwidth for injected-fault timeout accounting. *)

val resync : t -> unit
(** Abandon any half-finished log session after a transport failure:
    rolls the log's volatile signing state back (burning possibly-leaked
    presignatures forward) and re-adopts the log's password identifier
    list.  A no-op unless the previous operation failed mid-flight. *)

val set_domains : t -> int -> unit
(** Number of domains (cores) the client uses: ZKBoo proving splits its
    repetitions across them, and at 2 or more the TOTP 2PC runs its base
    OTs on a second domain while garbling.  Results and randomness use
    are the same at every setting. *)

(** {1 Step 1: enrollment} *)

val enroll : ?presignature_count:int -> t -> unit
(** One-time enrollment with the log service: creates the log account,
    generates archive keys and commitments for all three methods, and ships
    the initial presignature batch (default 100). *)

(** {1 Presignature management (§3.3)} *)

val presignatures_remaining : t -> int

val top_up_presignatures : t -> count:int -> unit
(** Generate a fresh batch and stage it at the log; it activates only after
    the log's objection window elapses. *)

val object_to_presignatures : t -> int
(** Disavow all staged batches (authenticated with the log-account
    credential); returns how many were cancelled. *)

(** {1 Step 2: registration} *)

val register_fido2 : t -> rp_name:string -> Point.t
(** Derive a fresh key share for [rp_name]; returns the aggregated public
    key to hand to the relying party.  Requires no log interaction. *)

val register_totp :
  ?algo:Larch_auth.Totp.algo -> t -> rp_name:string -> totp_key:string -> unit
(** Split the relying party's 20-byte TOTP secret and ship the log its
    share under a fresh random identifier. *)

val register_password : ?legacy:string -> t -> rp_name:string -> string
(** Register a password credential and return the password to set at the
    relying party: a fresh random one by default, or [legacy] imported
    verbatim (with the paper's caveat that reused legacy passwords weaken
    the logging guarantee). *)

(** {1 Step 3: authentication} *)

exception Log_misbehaved of string
(** Raised when the log service fails its own proof obligations (MAC check,
    DLEQ proof, commitment opening, or the per-authentication inclusion
    attestation). *)

val authenticate_fido2 : t -> rp_name:string -> challenge:string -> Larch_auth.Fido2.assertion
(** Full split-secret FIDO2 authentication: proves the encrypted log record
    well-formed in zero knowledge, then runs the two-party ECDSA protocol;
    returns the assertion for the relying party.
    @raise Types.Protocol_error if the log refuses (policy, proofs, presignatures)
    @raise Log_misbehaved if the log cheats in the signing protocol *)

val authenticate_totp_detailed : t -> rp_name:string -> time:float -> Totp_protocol.outcome
(** TOTP authentication via garbled-circuit 2PC; the outcome carries the
    code plus phase timings for the benchmarks. *)

val authenticate_totp : t -> rp_name:string -> time:float -> int
(** The 6-digit TOTP code for [rp_name] at [time]. *)

val authenticate_password : t -> rp_name:string -> string
(** Recompute the password for [rp_name] with the log's help; the password
    is never stored and every call leaves a log record. *)

(** {1 Step 4: auditing} *)

type audit_entry = {
  time : float;
  ip : string;
  method_ : Types.auth_method;
  rp : string option; (** [None] when the record names no known party *)
}

val audit : t -> audit_entry list
(** Download and decrypt the complete authentication history. *)

val audit_verified : t -> (audit_entry list, string) result
(** Like {!audit}, but verified.  Fast path: download only the records
    since the last verified tree size and check the signed tree head, a
    consistency proof old-head → new-head, and one inclusion proof per
    new record — O(log n) hashing per audit.  On any mismatch, fall back
    to the full download, rebuild the Merkle tree over it, and report
    the anomaly (an equivocating head, rollback, rewrite, or bad proofs)
    as [Error].  The verified state only advances on the fast path. *)

val detect_anomalies : t -> expected:(Types.auth_method * string) list -> audit_entry list
(** Entries in the log that the client did not initiate, given the activity
    the user believes happened: evidence of device compromise. *)

(** {1 Revocation and migration (§9)} *)

val revoke_all : t -> unit
(** Delete the log-side shares for every method; any stolen device state
    becomes unusable (the log refuses to participate). *)

val migrate_fido2 : t -> unit
(** Re-share the FIDO2 signing key with the log (shift by δ): public keys
    are unchanged, old-device shares become useless. *)

(** {1 Accounting} *)

val channel_snapshot : t -> Channel.snapshot
val reset_channels : t -> unit

(**/**)

(* Internal accessors used by the protocol drivers and the test suite. *)
val now : unit -> float
val send_c2l : t -> string -> unit
val send_l2c : t -> string -> unit
val fido2_side : t -> fido2_side
val totp_side : t -> totp_side
val pw_side : t -> pw_side

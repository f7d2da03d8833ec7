(* The larch log service.

   Holds per-client state for all three authentication methods, verifies
   the client's proofs before contributing to any credential, stores the
   encrypted authentication records, and serves audit downloads.  Also
   implements the operational machinery around the core protocols:
   presignature inventory with an objection window (§3.3), client-specific
   policies (§9), revocation and migration (§9), and storage accounting
   (Figure 4, left).

   The log never sees a relying-party identity: FIDO2/TOTP records are
   sha-ctr ciphertexts under the client's archive key, password records are
   ElGamal ciphertexts under the client's archive public key, and the
   GK15/ZKBoo proofs convince the log they are well-formed without opening
   them.

   Durability: the state types and every mutation of them live in
   {!Log_state}; this module validates requests and then [commit]s logical
   operations.  With a {!Larch_store.Store} attached, each committed op is
   also appended to the write-ahead log and every public call ends with a
   group-commit [sync] — the reply leaves the log only after its ops are
   fsynced.  [restart] then models a genuine kill: the disk drops whatever
   was never fsynced, and the client map is rebuilt purely from storage. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Tpe = Two_party_ecdsa
module Trace = Larch_obs.Trace
module Events = Larch_obs.Events
module Metrics = Larch_obs.Metrics
module Merkle = Larch_merkle.Merkle
module Wire = Larch_net.Wire

(* Pool-depth / burn-forward / record-volume instrumentation (capacity
   report inputs).  Guarded like every other metric: zero work while
   tracing is off. *)
let obs_on () = Larch_obs.Runtime.tracing_enabled ()
let m_inc name = Metrics.inc (Metrics.counter Metrics.default name)
let m_add name n = Metrics.add (Metrics.counter Metrics.default name) n
let m_gauge name v = Metrics.set_gauge (Metrics.gauge Metrics.default name) v

(* Observability note: every [Events.emit] below carries at most the client
   id, the auth method, and protocol-step detail.  Relying-party identities
   never reach the log (see the module header), so they can never appear in
   an event either — test/test_obs.ml checks this over full protocol runs. *)

type policy = Log_state.policy = {
  max_auths_per_window : int option;
  window_seconds : float;
  notify : (Types.auth_method -> float -> unit) option;
      (** §9: e.g. push a login-confirmation notification to the user's
          phone on every authentication. *)
}

let default_policy = Log_state.default_policy

type fido2_state = Log_state.fido2_state = {
  cm : string;
  record_vk : Point.t; (* verifies the client's record-integrity signatures *)
  key : Tpe.log_key;
  mutable batches : Tpe.log_batch list; (* active presignature batches *)
  mutable pending : (Tpe.log_batch * float) list; (* staged until the objection window passes *)
  mutable signing : Tpe.party_state option; (* in-flight Π_Sign *)
  mutable signing_record : Record.t option; (* stored once the proof verifies *)
  mutable client_commit : Larch_mpc.Spdz.open_commit option; (* client's opening commitment *)
}

type totp_state = Log_state.totp_state = {
  cm_totp : string;
  mutable registrations : Totp_protocol.registration list;
  mutable last_auth : (string * Totp_protocol.outcome) option;
}

type pw_state = Log_state.pw_state = {
  client_pub : Point.t; (* X = g^x, the ElGamal archive public key *)
  k : Scalar.t; (* the log's per-client Diffie-Hellman secret *)
  k_pub : Point.t;
  mutable ids : string list; (* registration order defines the GK15 set *)
}

type client_state = Log_state.client_state = {
  account_token : string; (* hash of the user's log-account credential *)
  mutable fido2 : fido2_state option;
  mutable totp : totp_state option;
  mutable pw : pw_state option;
  mutable records : Record.t list; (* newest first *)
  mutable policy : policy;
  mutable recent_auths : float list;
  mutable backup : string option; (* opaque encrypted client-state blob (§9 recovery) *)
  mutable last_migrate : string option; (* δ of the last key migration, for retry dedup *)
  mutable tree : Merkle.Tree.t; (* Merkle tree over the records: O(log n) audits *)
}

type t = {
  clients : Log_state.clients;
  rand : int -> string;
  objection_window : float; (* seconds before a staged batch activates *)
  persist : Log_persist.t option; (* None: purely in-memory (tests, benches) *)
  sth_sk : Scalar.t;
      (* the STH signing key lives outside the durable client state, as in
         an HSM: it survives [restart] (which only rebuilds the client
         map) and never appears in snapshots or WAL frames *)
  sth_pk : Point.t;
  preverified : (string, unit) Hashtbl.t;
      (* one-shot tokens from the admission loop's batch signature
         verification: volatile (like a session cache), keyed by a hash
         of (client, ciphertext, signature) so a token can only skip the
         exact individual check that the batch already performed *)
  mutable degraded : bool;
      (* brownout: while set, authentication acks carry degraded
         attestations (no inclusion proof, no padding — explicitly
         flagged) and clients re-verify on the next audit.  Volatile and
         operational — never persisted, never changes accept/reject *)
}

let create ?(objection_window = 0.) ?checkpoint_every ?store ~(rand_bytes : int -> string) () : t
    =
  let sth_sk, sth_pk = Larch_ec.Ecdsa.keygen ~rand_bytes in
  let persist = Option.map (Log_persist.of_store ?checkpoint_every) store in
  let clients =
    match persist with Some p -> Log_persist.recover p | None -> Hashtbl.create 16
  in
  {
    clients;
    rand = rand_bytes;
    objection_window;
    persist;
    sth_sk;
    sth_pk;
    preverified = Hashtbl.create 16;
    degraded = false;
  }

let sth_pub (t : t) : Point.t = t.sth_pk

let set_degraded (t : t) (b : bool) = t.degraded <- b
let degraded (t : t) : bool = t.degraded

let persist (t : t) : Log_persist.t option = t.persist

(* Semantic + structural storage verification (`larch fsck` online mode);
   [None] when the log runs without a store. *)
let fsck (t : t) : Log_persist.fsck option =
  Option.map (fun p -> Log_persist.fsck ~live:t.clients p) t.persist

(* Commit one durable operation: mutate the in-memory state through the
   single [Log_state.apply] path, then append it to the WAL buffer. *)
let commit (t : t) (e : Log_state.entry) : unit =
  Log_state.apply t.clients e;
  match t.persist with None -> () | Some p -> Log_persist.append p e

(* --- admission-batch signature pre-verification ------------------------ *)

let preverify_key ~client_id ~ct_nonce ~ct ~record_sig =
  Larch_hash.Sha256.digest_list
    [ "record-sig-preverified"; client_id; ct_nonce; ct; record_sig ]

let record_verify_key (t : t) ~(client_id : string) : Point.t option =
  match Hashtbl.find_opt t.clients client_id with
  | Some c -> Option.map (fun f -> f.Log_state.record_vk) c.Log_state.fido2
  | None -> None

let preverify_record_sig (t : t) ~(client_id : string) ~(ct_nonce : string)
    ~(ct : string) ~(record_sig : string) : unit =
  Hashtbl.replace t.preverified
    (preverify_key ~client_id ~ct_nonce ~ct ~record_sig)
    ()

(* Group-commit whatever the body appended, even when it raises: a
   rejected proof must not leave its policy charge un-fsynced. *)
let with_sync (t : t) (f : unit -> 'a) : 'a =
  match t.persist with
  | None -> f ()
  | Some p -> Fun.protect ~finally:(fun () -> Log_persist.sync p t.clients) f

let get_client (t : t) (cid : string) : client_state =
  match Hashtbl.find_opt t.clients cid with
  | Some c -> c
  | None -> Types.fail "unknown client %S" cid

let check_token (c : client_state) (token : string) : unit =
  if not (Larch_util.Bytesx.ct_equal c.account_token (Larch_hash.Sha256.digest token)) then
    Types.fail "log-account authentication failed"

(* --- the transparency layer: signed tree heads and per-auth proofs --- *)

(* The signed head of one client's record tree, as of right now.  Signing
   is RFC 6979 deterministic, so seeded worlds stay byte-reproducible. *)
let latest_sth (t : t) ~(client_id : string) (c : client_state) : Merkle.Sth.t =
  Merkle.Sth.sign ~sk:t.sth_sk ~client_id ~size:(Merkle.Tree.size c.tree)
    ~root:(Merkle.Tree.root c.tree) ~time:(Larch_util.Clock.now ())

(* Every authentication ack carries proof that its record landed in the
   tree: the leaf index, the record exactly as stored, the inclusion path,
   and the signed head it verifies against. *)
type attestation = {
  index : int;
  record : string; (* canonical record encoding = the tree leaf *)
  proof : string list;
  sth : Merkle.Sth.t;
  degraded : bool;
      (* brownout ack: no inclusion proof was computed; the client defers
         inclusion verification to its next verified audit *)
}

let attest (t : t) ~(client_id : string) (c : client_state) ~(index : int) : attestation =
  let sth = latest_sth t ~client_id c in
  let total = List.length c.records in
  (* records is newest-first; leaf [index] is the (total-1-index)th element *)
  let record = Record.encode (List.nth c.records (total - 1 - index)) in
  if t.degraded then begin
    (* brownout: skip the O(n) proof walk and the padding bytes — the ack
       is explicitly flagged so the client knows to re-verify at audit
       time.  The record and signed head still bind the authentication *)
    if obs_on () then begin
      m_inc "log.merkle.sths_signed";
      m_inc "log.attest.degraded"
    end;
    { index; record; proof = []; sth; degraded = true }
  end
  else begin
    let proof = Merkle.Tree.inclusion_at c.tree ~index ~size:sth.Merkle.Sth.size in
    if obs_on () then begin
      m_inc "log.merkle.sths_signed";
      Metrics.observe
        (Metrics.histogram Metrics.default "log.merkle.proof.bytes")
        (float_of_int (Merkle.hash_len * List.length proof))
    end;
    { index; record; proof; sth; degraded = false }
  end

(* The inclusion path is padded to a fixed depth on the wire: a proof's
   length is ⌈log₂ size⌉, so an unpadded ack would leak nothing new to
   the log (it knows the record count) but would vary auth-to-auth and
   break the uniform traffic profile the password protocol promises.
   Degraded (brownout) acks skip both proof and padding — that is the
   deferred work — and say so in their flag byte. *)
let attestation_pad_depth = 32

let put_attestation (w : Wire.writer) (a : attestation) : unit =
  Wire.u8 w (if a.degraded then 1 else 0);
  Wire.u32 w a.index;
  Wire.bytes w a.record;
  if a.degraded then Merkle.Sth.put w a.sth
  else begin
    Merkle.put_proof w a.proof;
    let pad = max 0 (attestation_pad_depth - List.length a.proof) in
    Wire.bytes w (String.make (Merkle.hash_len * pad) '\000');
    Merkle.Sth.put w a.sth
  end

let read_attestation (r : Wire.reader) : attestation =
  let flag = Wire.read_u8 r in
  if flag <> 0 && flag <> 1 then raise (Wire.Malformed "bad attestation flag");
  let degraded = flag = 1 in
  let index = Wire.read_u32 r in
  if index < 0 then raise (Wire.Malformed "bad attestation index");
  let record = Wire.read_bytes r in
  if degraded then
    let sth = Merkle.Sth.read r in
    { index; record; proof = []; sth; degraded }
  else
    let proof = Merkle.read_proof r in
    let (_padding : string) = Wire.read_bytes r in
    let sth = Merkle.Sth.read r in
    { index; record; proof; sth; degraded }

let encode_attestation (a : attestation) : string = Wire.encode (fun w -> put_attestation w a)
let decode_attestation (s : string) : (attestation, string) result = Wire.decode s read_attestation

(* --- enrollment --- *)

let enroll (t : t) ~(client_id : string) ~(account_password : string) : unit =
  match Hashtbl.find_opt t.clients client_id with
  | Some c when Larch_util.Bytesx.ct_equal c.account_token (Larch_hash.Sha256.digest account_password)
    ->
      (* a retransmitted enrollment from the same account holder: the
         account already exists, nothing to do *)
      ()
  | Some _ -> Types.fail "client already enrolled"
  | None ->
      Events.emit ~client:client_id Events.Enroll "account created";
      with_sync t @@ fun () ->
      commit t
        { cid = client_id; op = Enroll { token = Larch_hash.Sha256.digest account_password } }

let set_policy (t : t) ~(client_id : string) ~(token : string) (p : policy) : unit =
  let c = get_client t client_id in
  check_token c token;
  (with_sync t @@ fun () ->
   commit t
     {
       cid = client_id;
       op = Set_policy { max_auths = p.max_auths_per_window; window = p.window_seconds };
     });
  (* the notification callback is a closure: runtime-only, never durable *)
  c.policy <- { c.policy with notify = p.notify }

(* Pure rate-limit check — committing the charge is the caller's job, so
   that a single [Charge] op in the WAL captures exactly the window
   mutation the live map saw. *)
let check_policy ?client_id (c : client_state) ~(method_ : Types.auth_method) ~(now : float) :
    unit =
  match c.policy.max_auths_per_window with
  | None -> ()
  | Some limit ->
      let window_start = now -. c.policy.window_seconds in
      let recent = List.filter (fun ts -> ts >= window_start) c.recent_auths in
      if List.length recent >= limit then begin
        Events.emit ~severity:Events.Warn ?client:client_id
          ~method_:(Types.auth_method_to_string method_) Events.Policy_denied
          (Printf.sprintf "rate limit: %d auths in %.0fs window" limit c.policy.window_seconds);
        Types.fail "policy: rate limit exceeded"
      end

(* Check the policy and charge the window.  The charge is durable before
   the protocol proceeds: an authentication attempt counts against the
   rate limit even if its proof later fails. *)
let enforce_policy (t : t) ~(client_id : string) (c : client_state)
    ~(method_ : Types.auth_method) ~(now : float) : unit =
  check_policy ~client_id c ~method_ ~now;
  commit t { cid = client_id; op = Charge { method_; now } };
  match c.policy.notify with None -> () | Some f -> f method_ now

(* FIDO2 enrollment: archive-key commitment, record-integrity key, the
   log's signing-key share, and the first presignature batch. *)
let enroll_fido2 (t : t) ~(client_id : string) ~(cm : string) ~(record_vk : Point.t)
    ~(batch : Tpe.log_batch) : Point.t =
  let c = get_client t client_id in
  match c.fido2 with
  | Some f when Larch_util.Bytesx.ct_equal f.cm cm ->
      (* retransmission of the enrollment the log already processed *)
      f.key.Tpe.x_pub
  | Some _ -> Types.fail "fido2 already enrolled"
  | None ->
      let key = Tpe.log_keygen ~rand_bytes:t.rand in
      (with_sync t @@ fun () ->
       commit t
         { cid = client_id; op = Enroll_fido2 { cm; record_vk; x = key.Tpe.x; batch } });
      Events.emit ~client:client_id ~method_:"fido2" Events.Enroll
        (Printf.sprintf "fido2 enrolled, %d presignatures" (Array.length batch.Tpe.entries));
      key.Tpe.x_pub

let enroll_totp (t : t) ~(client_id : string) ~(cm : string) : unit =
  let c = get_client t client_id in
  match c.totp with
  | Some s when Larch_util.Bytesx.ct_equal s.cm_totp cm -> () (* retransmission *)
  | Some _ -> Types.fail "totp already enrolled"
  | None ->
      Events.emit ~client:client_id ~method_:"totp" Events.Enroll "totp enrolled";
      with_sync t @@ fun () -> commit t { cid = client_id; op = Enroll_totp { cm } }

let enroll_password (t : t) ~(client_id : string) ~(client_pub : Point.t) : Point.t =
  let c = get_client t client_id in
  match c.pw with
  | Some s when Point.equal s.client_pub client_pub -> s.k_pub (* retransmission *)
  | Some _ -> Types.fail "password already enrolled"
  | None ->
      Events.emit ~client:client_id ~method_:"password" Events.Enroll "password vault enrolled";
      let k, k_pub = Password_protocol.log_gen ~rand_bytes:t.rand in
      (with_sync t @@ fun () ->
       commit t { cid = client_id; op = Enroll_pw { client_pub; k } });
      k_pub

(* Multi-log deployments (§6): the client, trusted at enrollment, deals
   this log a Shamir share of the joint Diffie-Hellman key. *)
let enroll_password_share (t : t) ~(client_id : string) ~(client_pub : Point.t)
    ~(k_share : Scalar.t) : Point.t =
  let c = get_client t client_id in
  match c.pw with
  | Some s
    when Point.equal s.client_pub client_pub
         && Larch_util.Bytesx.ct_equal (Scalar.to_bytes_be s.k) (Scalar.to_bytes_be k_share) ->
      s.k_pub (* retransmission *)
  | Some _ -> Types.fail "password already enrolled"
  | None ->
      (with_sync t @@ fun () ->
       commit t { cid = client_id; op = Enroll_pw { client_pub; k = k_share } });
      (Log_state.pw_state c).k_pub

(* --- presignature inventory (§3.3) --- *)

let fido2_state = Log_state.fido2_state

let presignatures_remaining (t : t) ~(client_id : string) : int =
  let f = fido2_state (get_client t client_id) in
  List.fold_left (fun acc b -> acc + Tpe.log_batch_remaining b) 0 f.batches

(* A new batch is staged; it only becomes usable once the objection window
   has elapsed without the account owner objecting. *)
let stage_presignatures (t : t) ~(client_id : string) ~(batch : Tpe.log_batch) ~(now : float) :
    unit =
  let f = fido2_state (get_client t client_id) in
  (* a retransmitted staging request carries the very same batch value;
     staging it twice would double the inventory *)
  if not (List.exists (fun (b, _) -> b == batch) f.pending) then begin
    m_add "log.fido2.presigs_staged" (Array.length batch.Tpe.entries);
    with_sync t @@ fun () ->
    commit t
      { cid = client_id; op = Stage_presigs { batch; activate_at = now +. t.objection_window } }
  end

let activate_pending (t : t) ~(client_id : string) ~(now : float) : int =
  let f = fido2_state (get_client t client_id) in
  let ready, _ = List.partition (fun (_, at) -> at <= now) f.pending in
  let n = List.length ready in
  if n > 0 then begin
    m_add "log.fido2.batches_activated" n;
    with_sync t @@ fun () -> commit t { cid = client_id; op = Activate_pending { now } }
  end;
  n

(* The enrolled user (authenticated with her log-account credential)
   disavows staged presignatures — e.g. after noticing, via audit, a batch
   she never generated. *)
let object_to_pending (t : t) ~(client_id : string) ~(token : string) : int =
  let c = get_client t client_id in
  check_token c token;
  let f = fido2_state c in
  let n = List.length f.pending in
  (with_sync t @@ fun () -> commit t { cid = client_id; op = Object_pending });
  Events.emit ~severity:Events.Warn ~client:client_id ~method_:"fido2" Events.Objection
    (Printf.sprintf "client disavowed %d staged presignature batch(es)" n);
  n

(* Audit view of staged batches, so an honest client can detect
   attacker-generated presignatures during the objection window. *)
let pending_batches (t : t) ~(client_id : string) : (int * float) list =
  let f = fido2_state (get_client t client_id) in
  List.map (fun (b, at) -> (Array.length b.Tpe.entries, at)) f.pending

(* --- FIDO2 authentication --- *)

(* Round 1: check policy, verify the ZKBoo statement, verify the record
   signature, consume the presignature, store the encrypted record, and
   answer with the log's signing message and s-share. *)
let fido2_auth_begin ?(domains = 1) (t : t) ~(client_id : string) ~(ip : string) ~(now : float)
    (req : Fido2_protocol.auth_request) : Fido2_protocol.auth_response1 =
  Trace.with_span "log.fido2.auth_begin" @@ fun () ->
  with_sync t @@ fun () ->
  let proto_err detail =
    Events.emit ~severity:Events.Error ~client:client_id ~method_:"fido2" Events.Protocol_error
      detail
  in
  let c = get_client t client_id in
  let f = fido2_state c in
  enforce_policy t ~client_id c ~method_:Types.Fido2 ~now;
  Events.emit ~client:client_id ~method_:"fido2" Events.Auth_begin "zkboo proof + record received";
  if f.signing <> None then Types.fail "signing already in progress";
  (* the §7 integrity optimization: ciphertext signed outside the proof *)
  (match Larch_ec.Ecdsa.decode req.Fido2_protocol.record_sig with
  | Some sg ->
      (* one-shot skip token if the admission loop already verified this
         exact signature inside a batched multi-scalar sum *)
      let pk = preverify_key ~client_id ~ct_nonce:req.Fido2_protocol.ct_nonce
          ~ct:req.Fido2_protocol.ct ~record_sig:req.Fido2_protocol.record_sig
      in
      if Hashtbl.mem t.preverified pk then begin
        Hashtbl.remove t.preverified pk;
        if obs_on () then m_inc "log.fido2.record_sig_batched"
      end
      else if
        not (Larch_ec.Ecdsa.verify ~pk:f.record_vk (req.Fido2_protocol.ct_nonce ^ req.Fido2_protocol.ct) sg)
      then begin
        proto_err "record signature invalid";
        Types.fail "record signature invalid"
      end
  | None ->
      proto_err "record signature malformed";
      Types.fail "record signature malformed");
  if not (Fido2_protocol.verify_statement ~domains ~cm:f.cm req) then begin
    proto_err "zero-knowledge proof rejected";
    Types.fail "zero-knowledge proof rejected"
  end;
  (* single-use presignature discipline: indices are consumed in order *)
  let batch =
    match List.find_opt (fun b -> Tpe.log_batch_remaining b > 0) f.batches with
    | Some b -> b
    | None ->
        proto_err "out of presignatures";
        Types.fail "out of presignatures"
  in
  if req.Fido2_protocol.presig_index <> batch.Tpe.next then begin
    proto_err "presignature index mismatch";
    Types.fail "presignature index mismatch (expected %d, got %d)" batch.Tpe.next
      req.Fido2_protocol.presig_index
  end;
  let idx = batch.Tpe.next in
  commit t
    {
      cid = client_id;
      op = Fido2_consume { index = idx; total = Log_state.total_consumed f + 1 };
    };
  if obs_on () then begin
    m_inc "log.fido2.presigs_consumed";
    m_gauge "log.fido2.presigs_remaining"
      (float_of_int (List.fold_left (fun acc b -> acc + Tpe.log_batch_remaining b) 0 f.batches))
  end;
  (* the record is stored *before* the log releases any signing material *)
  f.signing_record <-
    Some
      {
        Record.time = now;
        ip;
        method_ = Types.Fido2;
        payload =
          Record.Symmetric
            {
              nonce = req.Fido2_protocol.ct_nonce;
              ct = req.Fido2_protocol.ct;
              signature = req.Fido2_protocol.record_sig;
            };
      };
  let inp = Tpe.halfmul_input_of_log batch idx ~sk0:f.key.Tpe.x in
  let st =
    Tpe.init_party ~party:0 ~inp ~cap_r:batch.Tpe.entries.(idx).Tpe.cap_r
      ~digest:req.Fido2_protocol.dgst
  in
  f.signing <- Some st;
  Trace.with_span "ecdsa2p.sign.log" @@ fun () ->
  let own = Tpe.round1 st in
  let s0 = Tpe.round2 st ~own ~other:req.Fido2_protocol.hm_msg in
  { Fido2_protocol.hm_msg = own; s0 = Scalar.to_bytes_be s0 }

(* Round 2: receive the client's s-share and opening commitment; commit the
   record and return the log's commitment, reveal, and an inclusion
   attestation for the freshly appended record. *)
let fido2_auth_commit (t : t) ~(client_id : string) ~(s1 : Scalar.t)
    ~(client_commit : Larch_mpc.Spdz.open_commit) :
    Larch_mpc.Spdz.open_commit * Larch_mpc.Spdz.open_reveal * attestation =
  Trace.with_span "log.fido2.auth_commit" @@ fun () ->
  with_sync t @@ fun () ->
  let c = get_client t client_id in
  let f = fido2_state c in
  let st = match f.signing with Some s -> s | None -> Types.fail "no signing in progress" in
  f.client_commit <- Some client_commit;
  (match f.signing_record with
  | Some r ->
      commit t { cid = client_id; op = Fido2_record { record = r } };
      m_inc "log.records.stored"
  | None -> Types.fail "no pending record");
  f.signing_record <- None;
  Events.emit ~client:client_id ~method_:"fido2" Events.Auth_commit
    "encrypted record appended to the audit chain";
  let att = attest t ~client_id c ~index:(Merkle.Tree.size c.tree - 1) in
  let commit_msg = Tpe.open_commit st ~other_s:s1 ~rand_bytes:t.rand in
  (commit_msg, Tpe.open_reveal st, att)

(* Round 3: the client's reveal; the log checks the MACs.  On failure the
   stored record remains (an attack trace) and the error is surfaced. *)
let fido2_auth_finish (t : t) ~(client_id : string)
    ~(client_reveal : Larch_mpc.Spdz.open_reveal) : bool =
  Trace.with_span "log.fido2.auth_finish" @@ fun () ->
  let c = get_client t client_id in
  let f = fido2_state c in
  let st = match f.signing with Some s -> s | None -> Types.fail "no signing in progress" in
  let commit =
    match f.client_commit with Some c -> c | None -> Types.fail "no client commitment"
  in
  f.signing <- None;
  f.client_commit <- None;
  let ok = Tpe.open_check st ~other_commit:commit ~other_reveal:client_reveal in
  if ok then
    Events.emit ~client:client_id ~method_:"fido2" Events.Auth_finish "signature share released"
  else
    Events.emit ~severity:Events.Error ~client:client_id ~method_:"fido2" Events.Protocol_error
      "client opening failed the MAC check";
  ok

(* Abandon an in-flight FIDO2 signing session after a transport failure.

   The volatile session state is discarded (any staged-but-uncommitted
   record with it), and the presignature cursors are burned *forward* until
   the log has consumed [consumed] presignatures in total — the client's
   own count.  Never backward: a presignature whose round-1 message may
   have left this log is compromised and must not be reused, so a
   half-spent session costs one presignature on both sides and the next
   session starts aligned. *)
let fido2_auth_abort (t : t) ~(client_id : string) ~(consumed : int) : unit =
  let c = get_client t client_id in
  let f = fido2_state c in
  if f.signing <> None || f.signing_record <> None || f.client_commit <> None then
    Events.emit ~severity:Events.Warn ~client:client_id ~method_:"fido2" Events.Protocol_error
      "in-flight signing session abandoned by the client";
  f.signing <- None;
  f.signing_record <- None;
  f.client_commit <- None;
  if Log_state.total_consumed f < consumed then begin
    m_add "log.fido2.presigs_burned" (consumed - Log_state.total_consumed f);
    with_sync t @@ fun () -> commit t { cid = client_id; op = Fido2_abort { consumed } }
  end

(* A log-process restart.  With a store attached this is a genuine kill:
   the disk keeps only what was fsynced (plus whatever its failure profile
   lets survive of the rest), and the client map is rebuilt from the
   snapshot + WAL alone — volatile in-flight session state is gone because
   nothing ever persisted it.  Without a store, the in-memory map *is* the
   durable state, so only the volatile session fields are dropped. *)
let restart (t : t) : unit =
  Hashtbl.reset t.preverified;
  match t.persist with
  | Some p ->
      let recovered = Log_persist.reopen p in
      Hashtbl.reset t.clients;
      Hashtbl.iter (fun cid c -> Hashtbl.replace t.clients cid c) recovered
  | None ->
      Hashtbl.iter
        (fun _ (c : client_state) ->
          match c.fido2 with
          | Some f ->
              f.signing <- None;
              f.signing_record <- None;
              f.client_commit <- None
          | None -> ())
        t.clients

(* --- TOTP --- *)

let totp_state = Log_state.totp_state

let totp_register (t : t) ~(client_id : string) (reg : Totp_protocol.registration) : unit =
  let c = get_client t client_id in
  let s = totp_state c in
  if
    List.exists
      (fun r ->
        r.Totp_protocol.id = reg.Totp_protocol.id && r.Totp_protocol.klog = reg.Totp_protocol.klog)
      s.registrations
  then () (* byte-identical retransmission: already stored *)
  else begin
    if List.exists (fun r -> r.Totp_protocol.id = reg.Totp_protocol.id) s.registrations then
      Types.fail "duplicate totp registration id";
    (with_sync t @@ fun () ->
     commit t
       {
         cid = client_id;
         op = Totp_register { id = reg.Totp_protocol.id; klog = reg.Totp_protocol.klog };
       });
    (* the registration identifier is random and never logged *)
    Events.emit ~client:client_id ~method_:"totp" Events.Register
      (Printf.sprintf "totp share stored (%d registrations)" (List.length s.registrations))
  end

let totp_unregister (t : t) ~(client_id : string) ~(token : string) ~(id : string) : bool =
  (* §4: clients can delete unused registrations to speed up the 2PC *)
  let c = get_client t client_id in
  check_token c token;
  let s = totp_state c in
  let removed = List.exists (fun r -> r.Totp_protocol.id = id) s.registrations in
  if removed then
    (with_sync t @@ fun () -> commit t { cid = client_id; op = Totp_unregister { id } });
  removed

let totp_registration_count (t : t) ~(client_id : string) : int =
  List.length (totp_state (get_client t client_id)).registrations

(* Leaf index of the TOTP record carrying [enc_nonce], for re-attesting a
   replayed 2PC outcome.  [c.records] is newest-first, so position [p]
   from the head is leaf [len - 1 - p]. *)
let record_index_of_nonce (c : client_state) ~(enc_nonce : string) : int =
  let len = List.length c.records in
  let rec scan pos = function
    | [] -> Types.fail "replayed totp outcome has no stored record"
    | (r : Record.t) :: rest -> (
        match r.Record.payload with
        | Record.Symmetric { nonce; _ } when Larch_util.Bytesx.ct_equal nonce enc_nonce ->
            len - 1 - pos
        | _ -> scan (pos + 1) rest)
  in
  scan 0 c.records

(* Execute the joint 2PC.  The closure receives the log's private inputs
   and runs the Yao protocol; the log stores the record iff the circuit's
   validity bit is set.  The ack pairs the outcome with an inclusion
   attestation for the stored record. *)
let totp_auth (t : t) ~(client_id : string) ~(ip : string) ~(now : float) ~(enc_nonce : string)
    ~(run :
       cm:string ->
       registrations:(string * string) list ->
       rand_log:(int -> string) ->
       Totp_protocol.outcome) : Totp_protocol.outcome * attestation =
  Trace.with_span "log.totp.auth" @@ fun () ->
  let c = get_client t client_id in
  let s = totp_state c in
  match s.last_auth with
  | Some (n, outcome) when Larch_util.Bytesx.ct_equal n enc_nonce ->
      (* retransmitted invocation of a 2PC that already completed: replay
         the outcome; the record is already stored and the policy already
         charged, but the attestation is re-issued against the current
         tree (the original's head may have grown since) *)
      (outcome, attest t ~client_id c ~index:(record_index_of_nonce c ~enc_nonce))
  | _ ->
      with_sync t @@ fun () ->
      enforce_policy t ~client_id c ~method_:Types.Totp ~now;
      Events.emit ~client:client_id ~method_:"totp" Events.Auth_begin
        (Printf.sprintf "2pc over %d registrations" (List.length s.registrations));
      let regs = List.map (fun r -> (r.Totp_protocol.id, r.Totp_protocol.klog)) s.registrations in
      (* the commitment baked into the circuit is the one the log recorded at
         enrollment — a client cannot substitute a commitment to a different
         archive key *)
      let outcome = run ~cm:s.cm_totp ~registrations:regs ~rand_log:t.rand in
      if not outcome.Totp_protocol.ok then begin
        Events.emit ~severity:Events.Error ~client:client_id ~method_:"totp" Events.Protocol_error
          "2pc validity bit is 0";
        Types.fail "totp 2pc validity bit is 0"
      end;
      let record =
        {
          Record.time = now;
          ip;
          method_ = Types.Totp;
          (* the Yao execution already binds the ciphertext, so the 64B
             integrity-signature slot is zero-filled but still accounted, as in
             the paper's 88B TOTP record *)
          payload =
            Record.Symmetric
              { nonce = enc_nonce; ct = outcome.Totp_protocol.ct; signature = String.make 64 '\000' };
        }
      in
      commit t
        {
          cid = client_id;
          op =
            Totp_auth
              {
                record;
                enc_nonce;
                code = outcome.Totp_protocol.code;
                hmac = outcome.Totp_protocol.hmac;
                ct = outcome.Totp_protocol.ct;
              };
        };
      m_inc "log.records.stored";
      Events.emit ~client:client_id ~method_:"totp" Events.Auth_finish
        "code released, encrypted record stored";
      (* keep the measured 2PC timings in the volatile dedup slot (replay
         reconstructs the same outcome with zeroed timings) *)
      s.last_auth <- Some (enc_nonce, outcome);
      (outcome, attest t ~client_id c ~index:(Merkle.Tree.size c.tree - 1))

(* --- passwords --- *)

let pw_state = Log_state.pw_state

let pw_register (t : t) ~(client_id : string) ~(id : string) : Point.t =
  let c = get_client t client_id in
  let s = pw_state c in
  if List.mem id s.ids then
    (* retransmission: the id is a 128-bit random handle the client drew,
       so a repeat can only be the same registration arriving twice; the
       answer Hash(id)^k is deterministic *)
    Password_protocol.log_register ~log_sk:s.k ~id
  else begin
    (with_sync t @@ fun () -> commit t { cid = client_id; op = Pw_register { id } });
    (* the identifier is a random handle carrying no relying-party name *)
    Events.emit ~client:client_id ~method_:"password" Events.Register
      (Printf.sprintf "password registered (%d ids)" (List.length s.ids));
    Password_protocol.log_register ~log_sk:s.k ~id
  end

let pw_registered_ids (t : t) ~(client_id : string) : string list =
  (pw_state (get_client t client_id)).ids

(* Roll back a registration that failed partway across a multi-log
   deployment; token-authenticated like every other destructive call. *)
let pw_unregister (t : t) ~(client_id : string) ~(token : string) ~(id : string) : bool =
  let c = get_client t client_id in
  check_token c token;
  let s = pw_state c in
  let removed = List.mem id s.ids in
  if removed then
    (with_sync t @@ fun () -> commit t { cid = client_id; op = Pw_unregister { id } });
  removed

(* Verify the one-out-of-many proofs, store the ElGamal record, reply with
   c₂^k (and a DLEQ proof that the right k was used), plus an inclusion
   attestation for the stored record. *)
let pw_auth (t : t) ~(client_id : string) ~(ip : string) ~(now : float)
    (req : Password_protocol.auth_request) : Point.t * Larch_sigma.Dleq.proof * attestation =
  Trace.with_span "log.pw.auth" @@ fun () ->
  with_sync t @@ fun () ->
  let c = get_client t client_id in
  let s = pw_state c in
  enforce_policy t ~client_id c ~method_:Types.Password ~now;
  Events.emit ~client:client_id ~method_:"password" Events.Auth_begin
    (Printf.sprintf "one-out-of-many proof over %d ids" (List.length s.ids));
  match
    Password_protocol.log_auth ~log_sk:s.k ~client_pub:s.client_pub ~ids:s.ids req
  with
  | None ->
      Events.emit ~severity:Events.Error ~client:client_id ~method_:"password"
        Events.Protocol_error "one-out-of-many proof rejected";
      Types.fail "one-out-of-many proof rejected"
  | Some y ->
      commit t
        {
          cid = client_id;
          op =
            Pw_auth
              {
                record =
                  {
                    Record.time = now;
                    ip;
                    method_ = Types.Password;
                    payload = Record.Elgamal req.Password_protocol.ct;
                  };
              };
        };
      m_inc "log.records.stored";
      Events.emit ~client:client_id ~method_:"password" Events.Auth_finish
        "exponentiation released, elgamal record stored";
      let proof =
        Larch_sigma.Dleq.prove ~base1:Point.g ~base2:req.Password_protocol.ct.Larch_ec.Elgamal.c2
          ~public1:s.k_pub ~public2:y ~secret:s.k ~tag:"larch-pw-log" ~rand_bytes:t.rand
      in
      let att = attest t ~client_id c ~index:(Merkle.Tree.size c.tree - 1) in
      (y, proof, att)

(* --- auditing, revocation, migration --- *)

let audit (t : t) ~(client_id : string) ~(token : string) : Record.t list =
  Trace.with_span "log.audit" @@ fun () ->
  let c = get_client t client_id in
  check_token c token;
  Events.emit ~client:client_id Events.Audit
    (Printf.sprintf "served %d encrypted records" (List.length c.records));
  List.rev c.records

(* Everything an auditing client needs to extend its verified view:
   the record delta since the tree size it last verified, a fresh STH,
   a consistency proof from [since] to the new head, and one inclusion
   proof per delta record. *)
type audit_response = {
  records : Record.t list; (* the delta, oldest first *)
  since : int; (* tree size the delta starts at (clamped) *)
  sth : Merkle.Sth.t;
  consistency : string list; (* proof from [since] to [sth.size] *)
  proofs : string list list; (* inclusion proof per delta record *)
}

let put_audit_response (w : Wire.writer) (a : audit_response) : unit =
  Wire.u32 w (List.length a.records);
  List.iter (fun r -> Wire.bytes w (Record.encode r)) a.records;
  Wire.u32 w a.since;
  Merkle.Sth.put w a.sth;
  Merkle.put_proof w a.consistency;
  Wire.u32 w (List.length a.proofs);
  List.iter (fun p -> Merkle.put_proof w p) a.proofs

let max_audit_records = 1 lsl 20

let read_audit_response (r : Wire.reader) : audit_response =
  let n = Wire.read_u32 r in
  if n < 0 || n > max_audit_records then raise (Wire.Malformed "bad audit record count");
  let records =
    List.init n (fun _ ->
        match Record.decode_opt (Wire.read_bytes r) with
        | Some rec_ -> rec_
        | None -> raise (Wire.Malformed "bad audit record"))
  in
  let since = Wire.read_u32 r in
  if since < 0 then raise (Wire.Malformed "bad audit since");
  let sth = Merkle.Sth.read r in
  let consistency = Merkle.read_proof r in
  let np = Wire.read_u32 r in
  if np < 0 || np > max_audit_records then raise (Wire.Malformed "bad audit proof count");
  let proofs = List.init np (fun _ -> Merkle.read_proof r) in
  { records; since; sth; consistency; proofs }

let encode_audit_response (a : audit_response) : string =
  Wire.encode (fun w -> put_audit_response w a)

let decode_audit_response (s : string) : (audit_response, string) result =
  Wire.decode s read_audit_response

(* Audit with proofs.  [since] is the tree size the client last verified;
   a [since] the log cannot serve (after a prune, or from a different
   fork) is clamped to 0 and the full history returned — the client
   notices via the [since] echo and its own consistency check. *)
let audit_with_head ?(since = 0) (t : t) ~(client_id : string) ~(token : string) :
    audit_response =
  Trace.with_span "log.audit.head" @@ fun () ->
  let c = get_client t client_id in
  check_token c token;
  let size = Merkle.Tree.size c.tree in
  let total = List.length c.records in
  let since = if since < 0 || since > size || since > total then 0 else since in
  let oldest_first = List.rev c.records in
  let records = List.filteri (fun i _ -> i >= since) oldest_first in
  let sth = latest_sth t ~client_id c in
  let consistency =
    if since > 0 && since < size then Merkle.Tree.consistency c.tree ~old_size:since ~new_size:size
    else []
  in
  let proofs =
    List.mapi
      (fun i _ ->
        let idx = since + i in
        if idx < size then Merkle.Tree.inclusion_at c.tree ~index:idx ~size else [])
      records
  in
  Events.emit ~client:client_id Events.Audit
    (Printf.sprintf "served %d-record delta from size %d with proofs" (List.length records) since);
  { records; since; sth; consistency; proofs }

(* The signed head alone — what a multilog cross-check or a gossiping
   verifier fetches. *)
let tree_head (t : t) ~(client_id : string) ~(token : string) : Merkle.Sth.t =
  let c = get_client t client_id in
  check_token c token;
  latest_sth t ~client_id c

(* Consistency proof from an old head a verifier remembers to the current
   tree; the verifier supplies the size, the log proves append-only. *)
let consistency_proof (t : t) ~(client_id : string) ~(token : string) ~(old_size : int) :
    string list =
  let c = get_client t client_id in
  check_token c token;
  let size = Merkle.Tree.size c.tree in
  if old_size < 0 || old_size > size then
    Types.fail "no consistency proof from size %d (tree has %d leaves)" old_size size;
  Merkle.Tree.consistency c.tree ~old_size ~new_size:size

(* §9 limitation mitigation: drop or re-encrypt old records. *)
let prune_records (t : t) ~(client_id : string) ~(token : string) ~(older_than : float) : int =
  let c = get_client t client_id in
  check_token c token;
  let dropped = List.length (List.filter (fun r -> r.Record.time < older_than) c.records) in
  if dropped > 0 then
    (with_sync t @@ fun () -> commit t { cid = client_id; op = Prune { older_than } });
  dropped

(* Revocation: delete the log-side shares so a lost device's secrets are
   useless (§9 "Revocation and migration"). *)
let revoke_all (t : t) ~(client_id : string) ~(token : string) : unit =
  let c = get_client t client_id in
  check_token c token;
  (with_sync t @@ fun () -> commit t { cid = client_id; op = Revoke });
  Events.emit ~severity:Events.Warn ~client:client_id Events.Revocation
    "all log-side shares deleted"

(* Migration: shift the log's FIDO2 key share by δ; combined with the
   client shifting every per-party share by -δ, public keys are unchanged
   while the old device's shares become useless. *)
let migrate_fido2 (t : t) ~(client_id : string) ~(token : string) ~(delta : Scalar.t) : unit =
  let c = get_client t client_id in
  check_token c token;
  ignore (fido2_state c);
  let delta_bytes = Scalar.to_bytes_be delta in
  match c.last_migrate with
  | Some d when Larch_util.Bytesx.ct_equal d delta_bytes -> () (* retransmission: δ already applied *)
  | _ -> with_sync t @@ fun () -> commit t { cid = client_id; op = Migrate { delta } }

(* --- encrypted state backups (§9 "Account recovery") --- *)

(* The blob is opaque authenticated ciphertext under a password-derived
   key; the log learns nothing from storing it. *)
let store_backup (t : t) ~(client_id : string) (blob : string) : unit =
  Events.emit ~client:client_id Events.Backup
    (Printf.sprintf "opaque state blob stored (%d bytes)" (String.length blob));
  ignore (get_client t client_id);
  with_sync t @@ fun () -> commit t { cid = client_id; op = Store_backup { blob } }

(* Fetching the backup is the one operation that must NOT require the
   account token through the normal channel: the user has lost her devices.
   The blob is self-protecting (wrong passwords fail its MAC), so handing
   it out reveals nothing; a production log would still rate-limit. *)
let fetch_backup (t : t) ~(client_id : string) : string option =
  Events.emit ~severity:Events.Warn ~client:client_id Events.Recovery
    "backup blob fetched without account token";
  (get_client t client_id).backup

(* --- storage accounting (Figure 4, left) --- *)

type storage = { presig_bytes : int; record_bytes : int }

let storage (t : t) ~(client_id : string) : storage =
  let c = get_client t client_id in
  let presig_bytes =
    match c.fido2 with
    | None -> 0
    | Some f ->
        List.fold_left
          (fun acc b -> acc + 16 + (Tpe.log_batch_remaining b * Tpe.log_presig_bytes))
          0 (f.batches @ List.map fst f.pending)
  in
  let record_bytes = List.fold_left (fun acc r -> acc + Record.storage_bytes r) 0 c.records in
  { presig_bytes; record_bytes }

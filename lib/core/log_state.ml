(* Durable log-service state and the logical operations that mutate it.

   This module is the single write path for everything the log service
   must not lose across a crash: the per-client enrollment shares, the
   encrypted records, the presignature inventory cursors, and the §9
   backup blobs.  [Log_service] validates a request, then commits one [op]
   — [apply] mutates the in-memory map and (when a store is attached)
   [Log_persist] appends the encoded op to the write-ahead log.  Recovery
   replays the same [apply] over the same ops, so the recovered state is
   the durable state by construction, not by a parallel re-implementation.

   Volatile state (the in-flight Π_Sign session, the client's opening
   commitment, the staged-but-uncommitted record) lives in the same
   records but is deliberately *not* described by any op: a crash drops
   it, which is the semantics the transport layer's restart hooks expect.

   Policy [notify] callbacks are runtime-only (closures don't persist);
   the durable half of a policy is its rate limit and window. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Tpe = Two_party_ecdsa
module Merkle = Larch_merkle.Merkle

type policy = {
  max_auths_per_window : int option;
  window_seconds : float;
  notify : (Types.auth_method -> float -> unit) option;
      (** §9: e.g. push a login-confirmation notification to the user's
          phone on every authentication.  Volatile: never persisted. *)
}

let default_policy = { max_auths_per_window = None; window_seconds = 60.; notify = None }

type fido2_state = {
  cm : string;
  record_vk : Point.t; (* verifies the client's record-integrity signatures *)
  key : Tpe.log_key;
  mutable batches : Tpe.log_batch list; (* active presignature batches *)
  mutable pending : (Tpe.log_batch * float) list; (* staged until the objection window passes *)
  mutable signing : Tpe.party_state option; (* volatile: in-flight Π_Sign *)
  mutable signing_record : Record.t option; (* volatile: stored once the proof verifies *)
  mutable client_commit : Larch_mpc.Spdz.open_commit option; (* volatile *)
}

type totp_state = {
  cm_totp : string;
  mutable registrations : Totp_protocol.registration list;
  mutable last_auth : (string * Totp_protocol.outcome) option;
      (* (enc_nonce, outcome) of the last 2PC: a retransmitted invocation
         with the same nonce replays the outcome instead of re-running the
         circuit and double-appending the record *)
}

type pw_state = {
  client_pub : Point.t; (* X = g^x, the ElGamal archive public key *)
  k : Scalar.t; (* the log's per-client Diffie-Hellman secret *)
  k_pub : Point.t;
  mutable ids : string list; (* registration order defines the GK15 set *)
}

type client_state = {
  account_token : string; (* hash of the user's log-account credential *)
  mutable fido2 : fido2_state option;
  mutable totp : totp_state option;
  mutable pw : pw_state option;
  mutable records : Record.t list; (* newest first *)
  mutable policy : policy;
  mutable recent_auths : float list;
  mutable backup : string option; (* opaque encrypted client-state blob (§9 recovery) *)
  mutable last_migrate : string option; (* δ of the last key migration, for retry dedup *)
  mutable tree : Merkle.Tree.t;
      (* RFC 6962 Merkle tree over the records, oldest first: the one
         tamper-evidence structure (rollback, rewrite and fork detection,
         §9) and O(log n) audits.  Derived state — never serialized,
         rebuilt from the records on recovery. *)
}

type clients = (string, client_state) Hashtbl.t

let create_client ~(token : string) : client_state =
  {
    account_token = token;
    fido2 = None;
    totp = None;
    pw = None;
    records = [];
    policy = default_policy;
    recent_auths = [];
    backup = None;
    last_migrate = None;
    tree = Merkle.Tree.create ();
  }

(* Every stored record extends the Merkle tree; audits return a signed
   tree head so a client that remembers the last head it saw can detect
   a log that rolls back or rewrites history (§9 "Multiple devices" /
   fork consistency). *)
let append_record (c : client_state) (r : Record.t) : unit =
  c.records <- r :: c.records;
  Merkle.Tree.append c.tree (Record.encode r)

(* Recompute the Merkle tree from [c.records].  Recovery and pruning both
   rebuild through here, so the tree can never drift from the records it
   summarizes. *)
let rebuild_derived (c : client_state) : unit =
  c.tree <- Merkle.Tree.of_leaves (List.map Record.encode (List.rev c.records))

let fido2_state (c : client_state) : fido2_state =
  match c.fido2 with Some f -> f | None -> Types.fail "fido2 not enrolled"

let totp_state (c : client_state) : totp_state =
  match c.totp with Some s -> s | None -> Types.fail "totp not enrolled"

let pw_state (c : client_state) : pw_state =
  match c.pw with Some s -> s | None -> Types.fail "password not enrolled"

(* --- the logical operation log --- *)

type op =
  | Enroll of { token : string (* sha256 of the account credential *) }
  | Set_policy of { max_auths : int option; window : float }
  | Enroll_fido2 of { cm : string; record_vk : Point.t; x : Scalar.t; batch : Tpe.log_batch }
  | Enroll_totp of { cm : string }
  | Enroll_pw of { client_pub : Point.t; k : Scalar.t }
  | Stage_presigs of { batch : Tpe.log_batch; activate_at : float }
  | Activate_pending of { now : float }
  | Object_pending
  | Charge of { method_ : Types.auth_method; now : float } (* a policy-window auth charge *)
  | Fido2_consume of { index : int; total : int (* consumed across batches after this op *) }
  | Fido2_record of { record : Record.t }
  | Fido2_abort of { consumed : int }
  | Totp_register of { id : string; klog : string }
  | Totp_unregister of { id : string }
  | Totp_auth of { record : Record.t; enc_nonce : string; code : int; hmac : string; ct : string }
  | Pw_register of { id : string }
  | Pw_unregister of { id : string }
  | Pw_auth of { record : Record.t }
  | Prune of { older_than : float }
  | Revoke
  | Migrate of { delta : Scalar.t }
  | Store_backup of { blob : string }

type entry = { cid : string; op : op }

let get (clients : clients) (cid : string) : client_state =
  match Hashtbl.find_opt clients cid with
  | Some c -> c
  | None -> Types.fail "unknown client %S" cid

let total_consumed (f : fido2_state) : int =
  List.fold_left (fun acc (b : Tpe.log_batch) -> acc + b.Tpe.next) 0 f.batches

(* Zeroed 2PC timings for a replayed TOTP outcome: phase timings are
   measurements of an execution that did not happen on this process. *)
let zero_timings : Larch_mpc.Yao.timings =
  { Larch_mpc.Yao.offline_seconds = 0.; online_seconds = 0.; evaluator_seconds = 0. }

(* The one mutation path for durable state.  Runtime commits and WAL
   replay both run through here; anything [apply] does not do is, by
   definition, not durable. *)
let apply (clients : clients) ({ cid; op } : entry) : unit =
  match op with
  | Enroll { token } -> Hashtbl.replace clients cid (create_client ~token)
  | Set_policy { max_auths; window } ->
      let c = get clients cid in
      c.policy <- { c.policy with max_auths_per_window = max_auths; window_seconds = window }
  | Enroll_fido2 { cm; record_vk; x; batch } ->
      let c = get clients cid in
      c.fido2 <-
        Some
          {
            cm;
            record_vk;
            key = { Tpe.x; x_pub = Point.mul_base x };
            batches = [ batch ];
            pending = [];
            signing = None;
            signing_record = None;
            client_commit = None;
          }
  | Enroll_totp { cm } ->
      (get clients cid).totp <- Some { cm_totp = cm; registrations = []; last_auth = None }
  | Enroll_pw { client_pub; k } ->
      (get clients cid).pw <- Some { client_pub; k; k_pub = Point.mul_base k; ids = [] }
  | Stage_presigs { batch; activate_at } ->
      let f = fido2_state (get clients cid) in
      f.pending <- f.pending @ [ (batch, activate_at) ]
  | Activate_pending { now } ->
      let f = fido2_state (get clients cid) in
      let ready, waiting = List.partition (fun (_, at) -> at <= now) f.pending in
      f.pending <- waiting;
      f.batches <- f.batches @ List.map fst ready
  | Object_pending -> (fido2_state (get clients cid)).pending <- []
  | Charge { method_ = _; now } ->
      let c = get clients cid in
      (match c.policy.max_auths_per_window with
      | None -> ()
      | Some _ ->
          let window_start = now -. c.policy.window_seconds in
          c.recent_auths <- List.filter (fun ts -> ts >= window_start) c.recent_auths);
      c.recent_auths <- now :: c.recent_auths
  | Fido2_consume { index; total = _ } ->
      let f = fido2_state (get clients cid) in
      (match List.find_opt (fun b -> Tpe.log_batch_remaining b > 0) f.batches with
      | Some b when b.Tpe.next = index -> b.Tpe.next <- index + 1
      | Some b -> Types.fail "replay: presignature cursor mismatch (at %d, op says %d)" b.Tpe.next index
      | None -> Types.fail "replay: no presignature to consume")
  | Fido2_record { record } -> append_record (get clients cid) record
  | Fido2_abort { consumed } ->
      let f = fido2_state (get clients cid) in
      let rec burn batches need =
        match batches with
        | [] -> ()
        | (b : Tpe.log_batch) :: rest ->
            let take = min (Array.length b.Tpe.entries) need in
            if b.Tpe.next < take then b.Tpe.next <- take;
            burn rest (need - take)
      in
      burn f.batches (max 0 consumed)
  | Totp_register { id; klog } ->
      let s = totp_state (get clients cid) in
      s.registrations <- s.registrations @ [ { Totp_protocol.id; klog } ]
  | Totp_unregister { id } ->
      let s = totp_state (get clients cid) in
      s.registrations <- List.filter (fun r -> r.Totp_protocol.id <> id) s.registrations
  | Totp_auth { record; enc_nonce; code; hmac; ct } ->
      let c = get clients cid in
      let s = totp_state c in
      append_record c record;
      s.last_auth <-
        Some (enc_nonce, { Totp_protocol.code; hmac; ok = true; ct; timings = zero_timings })
  | Pw_register { id } ->
      let s = pw_state (get clients cid) in
      s.ids <- s.ids @ [ id ]
  | Pw_unregister { id } ->
      let s = pw_state (get clients cid) in
      s.ids <- List.filter (fun i -> i <> id) s.ids
  | Pw_auth { record } -> append_record (get clients cid) record
  | Prune { older_than } ->
      let c = get clients cid in
      let keep = List.filter (fun (r : Record.t) -> r.Record.time >= older_than) c.records in
      c.records <- keep;
      (* user-authorized truncation restarts the tree so future audits
         verify against the pruned history *)
      rebuild_derived c
  | Revoke ->
      let c = get clients cid in
      c.fido2 <- None;
      c.totp <- None;
      c.pw <- None
  | Migrate { delta } ->
      let c = get clients cid in
      let f = fido2_state c in
      let x' = Scalar.add f.key.Tpe.x delta in
      c.fido2 <- Some { f with key = { Tpe.x = x'; x_pub = Point.mul_base x' } };
      c.last_migrate <- Some (Scalar.to_bytes_be delta)
  | Store_backup { blob } -> (get clients cid).backup <- Some blob

(* The larch client ("browser extension"): owns the archive keys and
   per-relying-party secrets, drives the three split-secret authentication
   protocols against a log service over metered channels, and decrypts the
   audit log.

   Every message that would cross the network is serialized with the real
   wire codecs and pushed through [chan] (or the TOTP offline/online
   channels), so the byte counts behind Table 6 / Figure 5 come from actual
   encodings. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Channel = Larch_net.Channel
module Transport = Larch_net.Transport
module Tpe = Two_party_ecdsa
module Statements = Larch_circuit.Larch_statements
module Bytesx = Larch_util.Bytesx
module Trace = Larch_obs.Trace
module Metrics = Larch_obs.Metrics
module Merkle = Larch_merkle.Merkle

let obs_on () = Larch_obs.Runtime.tracing_enabled ()
let m_inc name = Metrics.inc (Metrics.counter Metrics.default name)

type fido2_cred = { y : Scalar.t; pk : Point.t; mutable counter : int }
type totp_cred = { tid : string; kclient : string; algo : Larch_auth.Totp.algo }
type pw_cred = { pid : string; k_id : Point.t }

type fido2_side = {
  fk : string; (* 32B archive key *)
  fr : string; (* 16B commitment nonce *)
  record_sk : Scalar.t; (* record-integrity signing key (§7) *)
  log_pub : Point.t; (* X = g^x, the log's signing share *)
  mutable batches : Tpe.client_batch list;
  fido2_creds : (string, fido2_cred) Hashtbl.t; (* rp_name -> cred *)
  fido2_names : (string, string) Hashtbl.t; (* rp_id_hash -> rp_name *)
}

type totp_side = {
  tk : string;
  tr : string;
  totp_creds : (string, totp_cred) Hashtbl.t; (* rp_name -> cred *)
  totp_names : (string, string) Hashtbl.t; (* 16B id -> rp_name *)
}

type pw_side = {
  x : Scalar.t; (* ElGamal archive secret *)
  x_pub : Point.t;
  log_k_pub : Point.t; (* K = g^k *)
  mutable pw_ids : string list; (* registration order, mirrors the log *)
  pw_creds : (string, pw_cred) Hashtbl.t; (* rp_name -> cred *)
  pw_names : (string, string) Hashtbl.t; (* Point.encode Hash(id) -> rp_name *)
}

type t = {
  client_id : string;
  account_password : string;
  rand : int -> string;
  log : Log_service.t;
  chan : Channel.t; (* FIDO2/password auth traffic *)
  transport : Transport.t; (* every client↔log exchange rides this *)
  totp_offline : Channel.t;
  totp_online : Channel.t;
  mutable ip : string;
  mutable domains : int; (* client cores: ZKBoo proving, base OTs beside garbling *)
  mutable fido2 : fido2_side option;
  mutable totp : totp_side option;
  mutable pw : pw_side option;
  sth_pub : Point.t; (* the log's tree-head verification key, pinned at create *)
  mutable last_sth : Merkle.Sth.t option; (* last tree head verified by an audit *)
  mutable audited : Record.t list; (* records covered by [last_sth], oldest first *)
  mutable dirty : bool; (* a transport failure may have left the log mid-session *)
  mutable att_deferred : bool;
      (* a brownout ack carried no inclusion proof; cleared by the next
         verified audit, which covers the deferred record *)
  mutable att_pending : (int * string) list;
      (* (leaf index, record bytes) of every degraded ack still awaiting
         inclusion verification: the next verified audit must show
         exactly these bytes at these leaves before the deferral clears,
         so a log that acked without appending fails that audit *)
}

let create ?policy ?net ~(client_id : string) ~(account_password : string)
    ~(log : Log_service.t) ~(rand_bytes : int -> string) () : t =
  let chan = Channel.create ~label:"log" () in
  let transport = Transport.create ?policy ?net ~label:"log" chan in
  (* a peer restart loses the log's volatile in-flight session state *)
  Transport.on_restart transport (fun () -> Log_service.restart log);
  {
    client_id;
    account_password;
    rand = rand_bytes;
    log;
    chan;
    transport;
    totp_offline = Channel.create ~label:"totp.offline" ();
    totp_online = Channel.create ~label:"totp.online" ();
    ip = "198.51.100.7";
    domains = 1;
    fido2 = None;
    totp = None;
    pw = None;
    sth_pub = Log_service.sth_pub log;
    last_sth = None;
    audited = [];
    dirty = false;
    att_deferred = false;
    att_pending = [];
  }

let set_domains (t : t) (n : int) = t.domains <- max 1 n

let now () = Larch_util.Clock.now ()

let send_c2l (t : t) (payload : string) = ignore (Channel.send t.chan Channel.Client_to_log payload)
let send_l2c (t : t) (payload : string) = ignore (Channel.send t.chan Channel.Log_to_client payload)

(* --- transport failure discipline --- *)

(* [dirty] is set when a typed error escapes an operation while a fault
   injector is installed, or — on any path — when that error is an
   admission-control shed ([Overloaded]): either way the log may have been
   left mid-session.  The flag can never be set on a clean successful
   path, so checking it unconditionally is a zero-behavior change.  The
   next session start then resynchronizes with the log: the in-flight
   FIDO2 signing session is aborted with the presignature cursors aligned
   to the client's own count, and the password identifier list is adopted
   from the log (a registration whose ack was lost may live only there). *)
let overloaded_error = function
  | Transport.Error { Transport.last = Transport.Overloaded _; _ } -> true
  | _ -> false

let mark_dirty ?exn (t : t) =
  if Transport.faulty t.transport then t.dirty <- true
  else match exn with Some e when overloaded_error e -> t.dirty <- true | _ -> ()

let resync (t : t) : unit =
  if t.dirty then begin
    (match t.fido2 with
    | Some f ->
        let consumed = List.fold_left (fun acc b -> acc + b.Tpe.cnext) 0 f.batches in
        Transport.invoke t.transport ~op:"fido2.abort" (fun () ->
            Log_service.fido2_auth_abort t.log ~client_id:t.client_id ~consumed)
    | None -> ());
    (match t.pw with
    | Some s ->
        s.pw_ids <-
          Transport.invoke t.transport ~op:"pw.resync" (fun () ->
              Log_service.pw_registered_ids t.log ~client_id:t.client_id)
    | None -> ());
    t.dirty <- false
  end

(* --- Step 1: enrollment --- *)

let enroll ?(presignature_count = 100) (t : t) : unit =
  Trace.with_span "client.enroll" @@ fun () ->
  Trace.add_int "presigs" presignature_count;
  (* All client-side randomness is drawn before the first log exchange, so
     a retried step retransmits identical material and the log-side
     idempotency checks recognize it instead of rejecting a duplicate. *)
  let fk = t.rand 32 and fr = t.rand 16 in
  let cm = Larch_hash.Sha256.digest (fk ^ fr) in
  let record_sk, record_vk = Larch_ec.Ecdsa.keygen ~rand_bytes:t.rand in
  let cbatch, lbatch = Tpe.presign_batch ~count:presignature_count ~rand_bytes:t.rand in
  let tk = t.rand 32 and tr = t.rand 16 in
  let tcm = Larch_hash.Sha256.digest (tk ^ tr) in
  let x, x_pub = Password_protocol.client_gen ~rand_bytes:t.rand in
  try
    Transport.invoke t.transport ~op:"enroll.account" (fun () ->
        Log_service.enroll t.log ~client_id:t.client_id ~account_password:t.account_password);
    (* FIDO2: archive key + commitment, record key, presignature batch *)
    let log_pub =
      Transport.invoke t.transport ~op:"enroll.fido2" (fun () ->
          send_c2l t (String.make (Tpe.log_batch_wire_bytes lbatch) '\000');
          Log_service.enroll_fido2 t.log ~client_id:t.client_id ~cm ~record_vk ~batch:lbatch)
    in
    t.fido2 <-
      Some
        {
          fk;
          fr;
          record_sk;
          log_pub;
          batches = [ cbatch ];
          fido2_creds = Hashtbl.create 8;
          fido2_names = Hashtbl.create 8;
        };
    (* TOTP: its own archive key + commitment *)
    Transport.invoke t.transport ~op:"enroll.totp" (fun () ->
        Log_service.enroll_totp t.log ~client_id:t.client_id ~cm:tcm);
    t.totp <-
      Some { tk; tr; totp_creds = Hashtbl.create 8; totp_names = Hashtbl.create 8 };
    (* passwords: ElGamal archive keypair *)
    let log_k_pub =
      Transport.invoke t.transport ~op:"enroll.pw" (fun () ->
          Log_service.enroll_password t.log ~client_id:t.client_id ~client_pub:x_pub)
    in
    t.pw <-
      Some
        {
          x;
          x_pub;
          log_k_pub;
          pw_ids = [];
          pw_creds = Hashtbl.create 8;
          pw_names = Hashtbl.create 8;
        }
  with Transport.Error _ as e ->
    (* never leave half-enrolled state behind: best-effort server-side
       revocation, then a clean client, then the typed error *)
    (try Log_service.revoke_all t.log ~client_id:t.client_id ~token:t.account_password
     with _ -> ());
    t.fido2 <- None;
    t.totp <- None;
    t.pw <- None;
    raise e

let fido2_side (t : t) = match t.fido2 with Some f -> f | None -> Types.fail "not enrolled (fido2)"
let totp_side (t : t) = match t.totp with Some s -> s | None -> Types.fail "not enrolled (totp)"
let pw_side (t : t) = match t.pw with Some s -> s | None -> Types.fail "not enrolled (password)"

(* --- presignature management (§3.3) --- *)

let presignatures_remaining (t : t) : int =
  List.fold_left (fun acc b -> acc + Tpe.client_batch_remaining b) 0 (fido2_side t).batches

(* Generate and stage a fresh batch; it becomes active at the log only
   after the objection window. *)
let top_up_presignatures (t : t) ~(count : int) : unit =
  resync t;
  let f = fido2_side t in
  let cbatch, lbatch = Tpe.presign_batch ~count ~rand_bytes:t.rand in
  Transport.invoke t.transport ~op:"fido2.top_up" (fun () ->
      send_c2l t (String.make (Tpe.log_batch_wire_bytes lbatch) '\000');
      (* staging is idempotent on the batch value, so a retried invocation
         cannot double the inventory *)
      Log_service.stage_presignatures t.log ~client_id:t.client_id ~batch:lbatch ~now:(now ()));
  f.batches <- f.batches @ [ cbatch ]

let object_to_presignatures (t : t) : int =
  Log_service.object_to_pending t.log ~client_id:t.client_id ~token:t.account_password

(* --- Step 2: registration --- *)

(* FIDO2 registration is log-free (§3.2): derive a fresh key share and hand
   the aggregated public key to the relying party. *)
let register_fido2 (t : t) ~(rp_name : string) : Point.t =
  let f = fido2_side t in
  if Hashtbl.mem f.fido2_creds rp_name then Types.fail "already registered (fido2): %s" rp_name;
  let y, pk = Tpe.client_keygen ~log_pub:f.log_pub ~rand_bytes:t.rand in
  Hashtbl.replace f.fido2_creds rp_name { y; pk; counter = 0 };
  Hashtbl.replace f.fido2_names (Larch_auth.Fido2.rp_id_hash rp_name) rp_name;
  pk

(* TOTP registration: split the relying party's secret, ship the log its
   share under a random 128-bit identifier. *)
let register_totp ?(algo = Larch_auth.Totp.SHA1) (t : t) ~(rp_name : string) ~(totp_key : string)
    : unit =
  let s = totp_side t in
  if Hashtbl.mem s.totp_creds rp_name then Types.fail "already registered (totp): %s" rp_name;
  if String.length totp_key <> Statements.totp_key_len then
    Types.fail "totp key must be %d bytes" Statements.totp_key_len;
  let tid = t.rand Statements.totp_id_len in
  let kclient, klog = Larch_mpc.Sharing.xor totp_key ~rand_bytes:t.rand in
  let reg = { Totp_protocol.id = tid; klog } in
  Transport.post t.transport ~op:"totp.register"
    ~req:(Totp_protocol.encode_registration reg)
    (fun bytes ->
      match Totp_protocol.decode_registration bytes with
      | Some r -> Log_service.totp_register t.log ~client_id:t.client_id r
      | None -> raise (Transport.Reject "undecodable totp registration"));
  Hashtbl.replace s.totp_creds rp_name { tid; kclient; algo };
  Hashtbl.replace s.totp_names tid rp_name

(* Password registration; returns the password to set at the relying
   party.  [legacy] imports an existing password instead of generating a
   fresh random one (§5). *)
let register_password ?legacy (t : t) ~(rp_name : string) : string =
  resync t;
  let s = pw_side t in
  if Hashtbl.mem s.pw_creds rp_name then Types.fail "already registered (password): %s" rp_name;
  let pid, fresh_k_id = Password_protocol.client_register ~rand_bytes:t.rand in
  let y =
    try
      Transport.call t.transport ~op:"pw.register" ~req:pid ~decode:Point.decode (fun bytes ->
          if String.length bytes <> Password_protocol.id_len then
            raise (Transport.Reject "bad password id length");
          Point.encode (Log_service.pw_register t.log ~client_id:t.client_id ~id:bytes))
    with Transport.Error _ as e ->
      (* the log may have stored the id even though the ack never arrived;
         the next session adopts the log's list *)
      mark_dirty ~exn:e t;
      raise e
  in
  let k_id, pw_point =
    match legacy with
    | None -> (fresh_k_id, Password_protocol.finish_register ~k_id:fresh_k_id ~y)
    | Some pw ->
        let embedded = Password_protocol.embed_password pw in
        (Password_protocol.import_legacy ~pw:embedded ~y, embedded)
  in
  s.pw_ids <- s.pw_ids @ [ pid ];
  Hashtbl.replace s.pw_creds rp_name { pid; k_id };
  Hashtbl.replace s.pw_names (Point.encode (Larch_ec.Hash_to_curve.hash pid)) rp_name;
  (* the client deletes y and pw after registration (Figure 11) *)
  Password_protocol.password_string pw_point

(* --- Step 3: authentication --- *)

exception Log_misbehaved of string

(* Check the attestation riding an authentication ack: the tree head is
   genuinely signed by the log, the attested record is the one this very
   authentication produced ([payload_check] binds the ciphertext the
   client just sent), the inclusion proof places it under the head, and
   the head never shrinks below the last audited view.  A log that logs
   something other than what it acks — or acks without logging — fails
   here, at authentication time, not at the next audit.

   A brownout ack ([degraded]) carries no inclusion proof: the signed
   head and the record binding are still checked, and the acked (index,
   record) pair is stashed in [att_pending].  The next verified audit
   must find exactly those bytes at those leaves before the deferral
   clears (a log that acked without logging is still caught — one audit
   later instead of instantly). *)
let check_attestation (t : t) ~(payload_check : Record.t -> bool)
    (att : Log_service.attestation) : unit =
  let fail msg = raise (Log_misbehaved ("auth attestation rejected: " ^ msg)) in
  let sth = att.Log_service.sth in
  if not (Merkle.Sth.verify ~pk:t.sth_pub ~client_id:t.client_id sth) then
    fail "tree-head signature invalid";
  (match Record.decode_opt att.Log_service.record with
  | None -> fail "attested record undecodable"
  | Some r -> if not (payload_check r) then fail "attested record is not this authentication");
  if att.Log_service.degraded then begin
    t.att_pending <- (att.Log_service.index, att.Log_service.record) :: t.att_pending;
    t.att_deferred <- true;
    if obs_on () then m_inc "client.attestations.deferred"
  end
  else if
    not
      (Merkle.verify_inclusion ~root:sth.Merkle.Sth.root ~size:sth.Merkle.Sth.size
         ~index:att.Log_service.index ~leaf:att.Log_service.record ~proof:att.Log_service.proof)
  then fail "inclusion proof invalid";
  (match t.last_sth with
  | Some old when sth.Merkle.Sth.size < old.Merkle.Sth.size ->
      fail "tree head regressed below the last audited size"
  | _ -> ());
  if obs_on () && not att.Log_service.degraded then m_inc "client.attestations.verified"

(* FIDO2: build the statement, prove it, and run Π_Sign with the log.

   Transport discipline: each of the three rounds is one [Transport.call],
   so within a session every retry retransmits the identical bytes and the
   log's replay cache answers duplicates without consuming anything.  If a
   round still fails after the retry budget, the whole session is abandoned
   (the log aborts its in-flight state, cursors are realigned forward) and
   driven once more from scratch — costing exactly one presignature on
   both sides, never leaving a wedged session. *)
let fido2_session (t : t) ~(rp_name : string) ~(challenge : string) :
    Larch_auth.Fido2.assertion =
  let f = fido2_side t in
  let cred =
    match Hashtbl.find_opt f.fido2_creds rp_name with
    | Some c -> c
    | None -> Types.fail "not registered (fido2): %s" rp_name
  in
  cred.counter <- cred.counter + 1;
  let payload = Larch_auth.Fido2.make_payload ~rp_name ~challenge ~counter:cred.counter in
  let chal = Larch_auth.Fido2.statement_challenge payload in
  let dgst = Larch_auth.Fido2.signing_digest payload in
  let rp_hash = payload.Larch_auth.Fido2.rp_hash in
  (* encrypted record + integrity signature *)
  let ct_nonce = t.rand 12 in
  let ct = Larch_cipher.Ctr.sha_ctr ~key:f.fk ~nonce:ct_nonce rp_hash in
  (* even_r: the log's admission loop batch-verifies record signatures
     with one multi-scalar sum, which needs the nonce point recoverable
     from r without a parity search (see Ecdsa.verify_batch) *)
  let record_sig =
    Larch_ec.Ecdsa.encode (Larch_ec.Ecdsa.sign ~even_r:true ~sk:f.record_sk (ct_nonce ^ ct))
  in
  (* the zero-knowledge statement *)
  let witness =
    Statements.fido2_witness_bits
      { Statements.k = f.fk; r = f.fr; id = rp_hash; chal; nonce = ct_nonce }
  in
  let circuit = Lazy.force Statements.fido2_circuit in
  let proof =
    Larch_zkboo.Zkboo.prove ~domains:t.domains ~circuit ~witness
      ~statement_tag:Fido2_protocol.statement_tag ~rand_bytes:t.rand ()
  in
  (* consume the next presignature *)
  let signature =
  Trace.with_span "ecdsa2p.sign.client" @@ fun () ->
  let batch =
    match List.find_opt (fun b -> Tpe.client_batch_remaining b > 0) f.batches with
    | Some b -> b
    | None -> Types.fail "out of presignatures"
  in
  let idx = batch.Tpe.cnext in
  batch.Tpe.cnext <- idx + 1;
  let presig = batch.Tpe.centries.(idx) in
  let st =
    Tpe.init_party ~party:1
      ~inp:(Tpe.halfmul_input_of_client batch idx ~sk1:cred.y)
      ~cap_r:presig.Tpe.cap_r1 ~digest:dgst
  in
  let m1 = Tpe.round1 st in
  let req =
    {
      Fido2_protocol.dgst;
      ct_nonce;
      ct;
      record_sig;
      proof;
      presig_index = idx;
      hm_msg = m1;
    }
  in
  let resp1 =
    Transport.call t.transport ~op:"fido2.auth_begin"
      ~req:(Fido2_protocol.encode_auth_request req)
      ~decode:Fido2_protocol.decode_auth_response1
      (fun bytes ->
        match Fido2_protocol.decode_auth_request bytes with
        | Some r ->
            Fido2_protocol.encode_auth_response1
              (Log_service.fido2_auth_begin ~domains:2 t.log ~client_id:t.client_id ~ip:t.ip
                 ~now:(now ()) r)
        | None -> raise (Transport.Reject "undecodable auth request"))
  in
  let s0 = Scalar.of_bytes_be resp1.Fido2_protocol.s0 in
  let s1 = Tpe.round2 st ~own:m1 ~other:resp1.Fido2_protocol.hm_msg in
  let commit_c = Tpe.open_commit st ~other_s:s0 ~rand_bytes:t.rand in
  (* the response is commitment (32B) ‖ reveal (80B) ‖ attestation *)
  let commit_l, reveal_l, att =
    Transport.call t.transport ~op:"fido2.auth_commit"
      ~req:(Scalar.to_bytes_be s1 ^ commit_c.Larch_mpc.Spdz.commitment)
      ~decode:(fun s ->
        if String.length s < 112 then None
        else
          match
            ( Tpe.decode_reveal (String.sub s 32 80),
              Log_service.decode_attestation (String.sub s 112 (String.length s - 112)) )
          with
          | Some reveal, Ok att ->
              Some ({ Larch_mpc.Spdz.commitment = String.sub s 0 32 }, reveal, att)
          | _ -> None)
      (fun bytes ->
        if String.length bytes <> 64 then raise (Transport.Reject "bad commit message length");
        let s1' = Scalar.of_bytes_be (String.sub bytes 0 32) in
        let commit = { Larch_mpc.Spdz.commitment = String.sub bytes 32 32 } in
        let cl, rl, att =
          Log_service.fido2_auth_commit t.log ~client_id:t.client_id ~s1:s1' ~client_commit:commit
        in
        cl.Larch_mpc.Spdz.commitment ^ Tpe.encode_reveal rl ^ Log_service.encode_attestation att)
  in
  check_attestation t att ~payload_check:(fun r ->
      match r.Record.payload with
      | Record.Symmetric { nonce; ct = rct; _ } ->
          Bytesx.ct_equal nonce ct_nonce && Bytesx.ct_equal rct ct
      | _ -> false);
  if not (Tpe.open_check st ~other_commit:commit_l ~other_reveal:reveal_l) then
    raise (Log_misbehaved "signing MAC check failed");
  let reveal_c = Tpe.open_reveal st in
  let ok =
    Transport.call t.transport ~op:"fido2.auth_finish" ~req:(Tpe.encode_reveal reveal_c)
      ~decode:(function "\001" -> Some true | "\000" -> Some false | _ -> None)
      ~meter_resp:false
      (fun bytes ->
        match Tpe.decode_reveal bytes with
        | Some reveal ->
            if Log_service.fido2_auth_finish t.log ~client_id:t.client_id ~client_reveal:reveal
            then "\001"
            else "\000"
        | None -> raise (Transport.Reject "undecodable reveal"))
  in
  if not ok then raise (Log_misbehaved "log rejected the opening");
  Tpe.signature st ~other_s:s0
  in
  { Larch_auth.Fido2.payload; signature }

let authenticate_fido2 (t : t) ~(rp_name : string) ~(challenge : string) :
    Larch_auth.Fido2.assertion =
  Trace.with_span "client.fido2.auth" @@ fun () ->
  resync t;
  try fido2_session t ~rp_name ~challenge with
  | Transport.Error _ as e when Transport.faulty t.transport || overloaded_error e -> (
      (* abandon the wedged session (abort + cursor realignment), then
         drive one fresh session; a second failure surfaces typed.  An
         admission shed gets the same treatment even with no injector
         installed: round 1 may have consumed a presignature before a
         later round was shed *)
      t.dirty <- true;
      resync t;
      try fido2_session t ~rp_name ~challenge
      with e ->
        mark_dirty ~exn:e t;
        raise e)
  | (Log_misbehaved _ | Types.Protocol_error _) as e ->
      mark_dirty t;
      raise e

(* TOTP: run the 2PC; returns the full outcome (code + phase timings). *)
let authenticate_totp_detailed (t : t) ~(rp_name : string) ~(time : float) :
    Totp_protocol.outcome =
  Trace.with_span "client.totp.auth" @@ fun () ->
  resync t;
  let s = totp_side t in
  let cred =
    match Hashtbl.find_opt s.totp_creds rp_name with
    | Some c -> c
    | None -> Types.fail "not registered (totp): %s" rp_name
  in
  (* the nonce is drawn once per authentication, not per attempt: the log
     dedups the 2PC on it, so a retried invocation replays the finished
     outcome instead of re-running the circuit or double-logging *)
  let enc_nonce = t.rand 12 in
  let outcome, att =
    Transport.invoke t.transport ~op:"totp.auth" (fun () ->
        Log_service.totp_auth t.log ~client_id:t.client_id ~ip:t.ip ~now:(now ()) ~enc_nonce
          ~run:(fun ~cm ~registrations ~rand_log ->
            let pub =
              { Statements.cm; enc_nonce; time_counter = Larch_auth.Totp.counter_of_time time }
            in
            Totp_protocol.run_auth_on ~domains:t.domains ~pub ~n_rps:(List.length registrations)
              ~client:(s.tk, s.tr, cred.tid, cred.kclient)
              ~registrations ~rand_client:t.rand ~rand_log ~offline:t.totp_offline
              ~online:t.totp_online))
  in
  check_attestation t att ~payload_check:(fun r ->
      match r.Record.payload with
      | Record.Symmetric { nonce; ct; _ } ->
          Bytesx.ct_equal nonce enc_nonce && Bytesx.ct_equal ct outcome.Totp_protocol.ct
      | _ -> false);
  outcome

let authenticate_totp (t : t) ~(rp_name : string) ~(time : float) : int =
  (authenticate_totp_detailed t ~rp_name ~time).Totp_protocol.code

(* Passwords: one-out-of-many proof, log exponentiation, recombination. *)
let authenticate_password (t : t) ~(rp_name : string) : string =
  Trace.with_span "client.pw.auth" @@ fun () ->
  resync t;
  let s = pw_side t in
  let cred =
    match Hashtbl.find_opt s.pw_creds rp_name with
    | Some c -> c
    | None -> Types.fail "not registered (password): %s" rp_name
  in
  let idx =
    match List.find_index (fun id -> id = cred.pid) s.pw_ids with
    | Some i -> i
    | None -> Types.fail "identifier missing from registration list"
  in
  let r, req = Password_protocol.client_auth ~idx ~x:s.x ~ids:s.pw_ids ~rand_bytes:t.rand in
  (* the response is y (65B point) ‖ DLEQ proof (98B) ‖ attestation *)
  let y, dleq, att =
    try
      Transport.call t.transport ~op:"pw.auth"
        ~req:(Password_protocol.encode_auth_request req)
        ~decode:(fun bytes ->
          if String.length bytes < 163 then None
          else
            match
              ( Point.decode (String.sub bytes 0 65),
                Larch_sigma.Dleq.decode (String.sub bytes 65 98),
                Log_service.decode_attestation (String.sub bytes 163 (String.length bytes - 163))
              )
            with
            | Some y, Some d, Ok att -> Some (y, d, att)
            | _ -> None)
        (fun bytes ->
          match Password_protocol.decode_auth_request bytes with
          | Some r ->
              let y, dleq, att =
                Log_service.pw_auth t.log ~client_id:t.client_id ~ip:t.ip ~now:(now ()) r
              in
              Point.encode y ^ Larch_sigma.Dleq.encode dleq ^ Log_service.encode_attestation att
          | None -> raise (Transport.Reject "undecodable auth request"))
    with Transport.Error _ as e ->
      mark_dirty ~exn:e t;
      raise e
  in
  check_attestation t att ~payload_check:(fun rec_ ->
      match rec_.Record.payload with
      | Record.Elgamal ct ->
          Bytesx.ct_equal (Point.encode ct.Larch_ec.Elgamal.c1)
            (Point.encode req.Password_protocol.ct.Larch_ec.Elgamal.c1)
          && Bytesx.ct_equal (Point.encode ct.Larch_ec.Elgamal.c2)
               (Point.encode req.Password_protocol.ct.Larch_ec.Elgamal.c2)
      | _ -> false);
  (* check the log exponentiated with its registered key *)
  if
    not
      (Larch_sigma.Dleq.verify ~base1:Point.g ~base2:req.Password_protocol.ct.Larch_ec.Elgamal.c2
         ~public1:s.log_k_pub ~public2:y ~tag:"larch-pw-log" dleq)
  then raise (Log_misbehaved "log's DLEQ proof rejected");
  let pw_point = Password_protocol.finish_auth ~x:s.x ~log_pub:s.log_k_pub ~r ~k_id:cred.k_id ~y in
  (* the password is recomputed per authentication and not stored *)
  Password_protocol.password_string pw_point

(* --- Step 4: auditing --- *)

type audit_entry = {
  time : float;
  ip : string;
  method_ : Types.auth_method;
  rp : string option; (* None = the record names no relying party we know *)
}

let audit_of_records (t : t) (records : Record.t list) : audit_entry list =
  List.map
    (fun (r : Record.t) ->
      let rp =
        match (r.Record.method_, r.Record.payload) with
        | Types.Fido2, Record.Symmetric { nonce; ct; _ } -> (
            match t.fido2 with
            | None -> None
            | Some f ->
                let rp_hash = Larch_cipher.Ctr.sha_ctr ~key:f.fk ~nonce ct in
                Hashtbl.find_opt f.fido2_names rp_hash)
        | Types.Totp, Record.Symmetric { nonce; ct; _ } -> (
            match t.totp with
            | None -> None
            | Some s ->
                let keystream = Larch_hash.Sha256.digest (s.tk ^ nonce ^ Bytesx.be32 0) in
                let tid = Bytesx.xor ct (String.sub keystream 0 (String.length ct)) in
                Hashtbl.find_opt s.totp_names tid)
        | Types.Password, Record.Elgamal ct -> (
            match t.pw with
            | None -> None
            | Some s ->
                let h = Password_protocol.decrypt_record ~x:s.x ct in
                Hashtbl.find_opt s.pw_names (Point.encode h))
        | _ -> None
      in
      { time = r.Record.time; ip = r.Record.ip; method_ = r.Record.method_; rp })
    records

let audit (t : t) : audit_entry list =
  Trace.with_span "client.audit" @@ fun () ->
  audit_of_records t
    (Transport.invoke t.transport ~op:"audit" (fun () ->
         Log_service.audit t.log ~client_id:t.client_id ~token:t.account_password))

(* Full-download fallback: rebuild the Merkle tree over every served
   record and name the anomaly that made the fast path fail.  O(n)
   hashing — only a misbehaving log pays it.  Every outcome is an error:
   the verified view only advances on the fast path. *)
let audit_verified_scan (t : t) (resp : Log_service.audit_response) : string =
  let sth = resp.Log_service.sth in
  let tree = Merkle.Tree.of_leaves (List.map Record.encode resp.Log_service.records) in
  let n = Merkle.Tree.size tree in
  if resp.Log_service.since <> 0 then "log refused to serve the full history"
  else if not (Merkle.Sth.verify ~pk:t.sth_pub ~client_id:t.client_id sth) then
    "log's signed tree head does not verify"
  else if
    sth.Merkle.Sth.size <> n || not (Bytesx.ct_equal (Merkle.Tree.root tree) sth.Merkle.Sth.root)
  then "log's signed tree head does not match the records it serves (equivocation suspected)"
  else
    match t.last_sth with
    | Some { Merkle.Sth.size = old_size; root = old_root; _ }
      when old_size > n || not (Bytesx.ct_equal (Merkle.Tree.root_at tree old_size) old_root) ->
        "log rolled back or rewrote previously audited records"
    | _ -> "log served invalid proofs for a consistent history"

(* Verified audit, Merkle fast path: download only the delta since the
   last verified tree size, check the signed head, the consistency proof
   old-head → new-head, and one inclusion proof per new record — O(log n)
   hashing per audit instead of rehashing the whole history.

   Any mismatch falls back to the full-download scan, which names the
   anomaly: an unsigned or equivocating head, a rollback or rewrite of
   audited records, or bad proofs for a consistent history.  The
   verified state ([last_sth], [audited]) only ever advances on the
   fast path. *)
let audit_verified (t : t) : (audit_entry list, string) result =
  Trace.with_span "client.audit.verified" @@ fun () ->
  let since = List.length t.audited in
  let resp =
    Transport.invoke t.transport ~op:"audit.head" (fun () ->
        Log_service.audit_with_head ~since t.log ~client_id:t.client_id
          ~token:t.account_password)
  in
  let sth = resp.Log_service.sth in
  let delta = resp.Log_service.records in
  let fast_ok =
    resp.Log_service.since = since
    && Merkle.Sth.verify ~pk:t.sth_pub ~client_id:t.client_id sth
    && sth.Merkle.Sth.size = since + List.length delta
    && (match t.last_sth with
       | None -> since = 0
       | Some old ->
           since = old.Merkle.Sth.size
           && (since = 0 || since = sth.Merkle.Sth.size
              || Merkle.verify_consistency ~old_root:old.Merkle.Sth.root ~old_size:since
                   ~new_root:sth.Merkle.Sth.root ~new_size:sth.Merkle.Sth.size
                   ~proof:resp.Log_service.consistency))
    && (match t.last_sth with
       | Some old when since = sth.Merkle.Sth.size ->
           (* nothing new: the head must be the one we already verified *)
           Bytesx.ct_equal old.Merkle.Sth.root sth.Merkle.Sth.root
       | _ -> true)
    && List.length resp.Log_service.proofs = List.length delta
    && List.for_all2
         (fun (i, r) proof ->
           Merkle.verify_inclusion ~root:sth.Merkle.Sth.root ~size:sth.Merkle.Sth.size ~index:i
             ~leaf:(Record.encode r) ~proof)
         (List.mapi (fun i r -> (since + i, r)) delta)
         resp.Log_service.proofs
  in
  if fast_ok then begin
    t.audited <- t.audited @ delta;
    t.last_sth <- Some sth;
    (* discharge brownout-deferred inclusion checks: every audited record
       was inclusion-verified against the live root, so a degraded ack is
       covered iff its exact record bytes sit at its acked leaf.  A log
       that acked without appending has a consistent tree that simply
       lacks the record — it fails here, one audit later. *)
    let missing =
      match t.att_pending with
      | [] -> []
      | pending ->
          let leaves = Array.of_list (List.map Record.encode t.audited) in
          List.filter
            (fun (i, enc) ->
              i < 0 || i >= Array.length leaves || not (Bytesx.ct_equal leaves.(i) enc))
            pending
    in
    t.att_pending <- missing;
    if missing = [] then begin
      t.att_deferred <- false;
      Ok (audit_of_records t t.audited)
    end
    else begin
      if obs_on () then m_inc "client.audit.deferred_missing";
      Error
        "log acked a brownout-deferred record without appending it (missing from the audited log)"
    end
  end
  else begin
    (* the log could not extend our verified view: refetch everything and
       let the scan name the anomaly *)
    if obs_on () then m_inc "client.audit.fallbacks";
    let full =
      if resp.Log_service.since = 0 then resp
      else
        Transport.invoke t.transport ~op:"audit.head" (fun () ->
            Log_service.audit_with_head ~since:0 t.log ~client_id:t.client_id
              ~token:t.account_password)
    in
    Error (audit_verified_scan t full)
  end

(* Compare the log against locally expected activity: entries the client
   did not initiate are evidence of compromise. *)
let detect_anomalies (t : t) ~(expected : (Types.auth_method * string) list) : audit_entry list =
  let entries = audit t in
  let expected = ref expected in
  List.filter
    (fun e ->
      match e.rp with
      | None -> true
      | Some rp ->
          let key = (e.method_, rp) in
          if List.mem key !expected then begin
            (* consume one expected occurrence *)
            let rec remove = function
              | [] -> []
              | x :: rest when x = key -> rest
              | x :: rest -> x :: remove rest
            in
            expected := remove !expected;
            false
          end
          else true)
    entries

(* --- revocation & migration (§9) --- *)

let revoke_all (t : t) : unit =
  Transport.invoke t.transport ~op:"revoke" (fun () ->
      Log_service.revoke_all t.log ~client_id:t.client_id ~token:t.account_password);
  t.fido2 <- None;
  t.totp <- None;
  t.pw <- None

(* Move FIDO2 credentials to this (new) device state by re-sharing: the log
   shifts its share by δ, we shift every per-party share by -δ.  Public
   keys are unchanged; the old device's shares are now useless. *)
let migrate_fido2 (t : t) : unit =
  resync t;
  let f = fido2_side t in
  let delta = Scalar.random_nonzero ~rand_bytes:t.rand in
  (* the log dedups on δ, so the at-least-once invoke applies it exactly
     once; the local shift below runs only after the log confirmed *)
  Transport.invoke t.transport ~op:"fido2.migrate" (fun () ->
      Log_service.migrate_fido2 t.log ~client_id:t.client_id ~token:t.account_password ~delta);
  let log_pub' = Point.add f.log_pub (Point.mul_base delta) in
  Hashtbl.iter
    (fun name cred ->
      Hashtbl.replace f.fido2_creds name { cred with y = Scalar.sub cred.y delta })
    (Hashtbl.copy f.fido2_creds);
  t.fido2 <- Some { f with log_pub = log_pub' }

(* --- communication accounting --- *)

let channel_snapshot (t : t) = Channel.snapshot t.chan
let reset_channels (t : t) =
  Channel.reset t.chan;
  Channel.reset t.totp_offline;
  Channel.reset t.totp_online

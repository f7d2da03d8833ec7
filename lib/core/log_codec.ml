(* Wire serialization for the durable log-service state: WAL entries
   (one [Log_state.entry] per frame) and full-state snapshots.

   The snapshot encoding is canonical — clients sorted by id, volatile
   fields omitted — so two state maps that agree on durable content
   produce identical bytes.  `larch fsck` leans on this: it re-derives
   the state by replaying snapshot + WAL through [Log_state.apply] and
   byte-compares the two encodings. *)

module Wire = Larch_net.Wire
module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Tpe = Two_party_ecdsa
open Log_state

let put_scalar w (s : Scalar.t) = Wire.fixed w (Scalar.to_bytes_be s)
let read_scalar r = Scalar.of_bytes_be (Wire.read_fixed r 32)
let put_point w (p : Point.t) = Wire.bytes w (Point.encode p)

let read_point r =
  match Point.decode (Wire.read_bytes r) with
  | Some p -> p
  | None -> raise (Wire.Malformed "bad point")

let put_float w (f : float) = Wire.u64 w (Int64.bits_of_float f)
let read_float r = Int64.float_of_bits (Wire.read_u64 r)

let put_opt (put : Wire.writer -> 'a -> unit) w (v : 'a option) =
  match v with
  | None -> Wire.u8 w 0
  | Some x ->
      Wire.u8 w 1;
      put w x

let read_opt (read : Wire.reader -> 'a) r : 'a option =
  match Wire.read_u8 r with
  | 0 -> None
  | 1 -> Some (read r)
  | _ -> raise (Wire.Malformed "bad option tag")

let put_record w (rec_ : Record.t) = Wire.bytes w (Record.encode rec_)

let read_record r =
  match Record.decode_opt (Wire.read_bytes r) with
  | Some rec_ -> rec_
  | None -> raise (Wire.Malformed "bad record")

let put_batch w (b : Tpe.log_batch) =
  Wire.bytes w b.Tpe.seed;
  Wire.u32 w b.Tpe.next;
  Wire.u32 w (Array.length b.Tpe.entries);
  Array.iter
    (fun (p : Tpe.log_presig) ->
      List.iter (put_scalar w) [ p.Tpe.cap_r; p.Tpe.r0; p.Tpe.rhat0; p.Tpe.alpha0; p.Tpe.c0; p.Tpe.h0 ])
    b.Tpe.entries

let read_batch r : Tpe.log_batch =
  let seed = Wire.read_bytes r in
  let next = Wire.read_u32 r in
  let count = Wire.read_u32 r in
  if count < 0 || count > 1_000_000 then raise (Wire.Malformed "bad batch size");
  let entries =
    Array.init count (fun _ ->
        let cap_r = read_scalar r in
        let r0 = read_scalar r in
        let rhat0 = read_scalar r in
        let alpha0 = read_scalar r in
        let c0 = read_scalar r in
        let h0 = read_scalar r in
        { Tpe.cap_r; r0; rhat0; alpha0; c0; h0 })
  in
  { Tpe.seed; entries; next }

(* --- WAL entries --- *)

let encode_op (w : Wire.writer) (op : op) : unit =
  match op with
  | Enroll { token } ->
      Wire.u8 w 0;
      Wire.bytes w token
  | Set_policy { max_auths; window } ->
      Wire.u8 w 1;
      put_opt (fun w v -> Wire.u32 w v) w max_auths;
      put_float w window
  | Enroll_fido2 { cm; record_vk; x; batch } ->
      Wire.u8 w 2;
      Wire.bytes w cm;
      put_point w record_vk;
      put_scalar w x;
      put_batch w batch
  | Enroll_totp { cm } ->
      Wire.u8 w 3;
      Wire.bytes w cm
  | Enroll_pw { client_pub; k } ->
      Wire.u8 w 4;
      put_point w client_pub;
      put_scalar w k
  | Stage_presigs { batch; activate_at } ->
      Wire.u8 w 5;
      put_batch w batch;
      put_float w activate_at
  | Activate_pending { now } ->
      Wire.u8 w 6;
      put_float w now
  | Object_pending -> Wire.u8 w 7
  | Charge { method_; now } ->
      Wire.u8 w 8;
      Wire.u8 w (Types.auth_method_tag method_);
      put_float w now
  | Fido2_consume { index; total } ->
      Wire.u8 w 9;
      Wire.u32 w index;
      Wire.u32 w total
  | Fido2_record { record } ->
      Wire.u8 w 10;
      put_record w record
  | Fido2_abort { consumed } ->
      Wire.u8 w 11;
      Wire.u32 w consumed
  | Totp_register { id; klog } ->
      Wire.u8 w 12;
      Wire.bytes w id;
      Wire.bytes w klog
  | Totp_unregister { id } ->
      Wire.u8 w 13;
      Wire.bytes w id
  | Totp_auth { record; enc_nonce; code; hmac; ct } ->
      Wire.u8 w 14;
      put_record w record;
      Wire.bytes w enc_nonce;
      Wire.u32 w code;
      Wire.bytes w hmac;
      Wire.bytes w ct
  | Pw_register { id } ->
      Wire.u8 w 15;
      Wire.bytes w id
  | Pw_unregister { id } ->
      Wire.u8 w 16;
      Wire.bytes w id
  | Pw_auth { record } ->
      Wire.u8 w 17;
      put_record w record
  | Prune { older_than } ->
      Wire.u8 w 18;
      put_float w older_than
  | Revoke -> Wire.u8 w 19
  | Migrate { delta } ->
      Wire.u8 w 20;
      put_scalar w delta
  | Store_backup { blob } ->
      Wire.u8 w 21;
      Wire.bytes w blob

let decode_op (r : Wire.reader) : op =
  match Wire.read_u8 r with
  | 0 -> Enroll { token = Wire.read_bytes r }
  | 1 ->
      let max_auths = read_opt Wire.read_u32 r in
      let window = read_float r in
      Set_policy { max_auths; window }
  | 2 ->
      let cm = Wire.read_bytes r in
      let record_vk = read_point r in
      let x = read_scalar r in
      let batch = read_batch r in
      Enroll_fido2 { cm; record_vk; x; batch }
  | 3 -> Enroll_totp { cm = Wire.read_bytes r }
  | 4 ->
      let client_pub = read_point r in
      let k = read_scalar r in
      Enroll_pw { client_pub; k }
  | 5 ->
      let batch = read_batch r in
      let activate_at = read_float r in
      Stage_presigs { batch; activate_at }
  | 6 -> Activate_pending { now = read_float r }
  | 7 -> Object_pending
  | 8 ->
      let method_ =
        match Types.auth_method_of_tag (Wire.read_u8 r) with
        | Some m -> m
        | None -> raise (Wire.Malformed "bad method tag")
      in
      let now = read_float r in
      Charge { method_; now }
  | 9 ->
      let index = Wire.read_u32 r in
      let total = Wire.read_u32 r in
      Fido2_consume { index; total }
  | 10 -> Fido2_record { record = read_record r }
  | 11 -> Fido2_abort { consumed = Wire.read_u32 r }
  | 12 ->
      let id = Wire.read_bytes r in
      let klog = Wire.read_bytes r in
      Totp_register { id; klog }
  | 13 -> Totp_unregister { id = Wire.read_bytes r }
  | 14 ->
      let record = read_record r in
      let enc_nonce = Wire.read_bytes r in
      let code = Wire.read_u32 r in
      let hmac = Wire.read_bytes r in
      let ct = Wire.read_bytes r in
      Totp_auth { record; enc_nonce; code; hmac; ct }
  | 15 -> Pw_register { id = Wire.read_bytes r }
  | 16 -> Pw_unregister { id = Wire.read_bytes r }
  | 17 -> Pw_auth { record = read_record r }
  | 18 -> Prune { older_than = read_float r }
  | 19 -> Revoke
  | 20 -> Migrate { delta = read_scalar r }
  | 21 -> Store_backup { blob = Wire.read_bytes r }
  | t -> raise (Wire.Malformed (Printf.sprintf "bad op tag %d" t))

let encode_entry ({ cid; op } : entry) : string =
  Wire.encode (fun w ->
      Wire.bytes w cid;
      encode_op w op)

let decode_entry (s : string) : (entry, string) result =
  Wire.decode s (fun r ->
      let cid = Wire.read_bytes r in
      let op = decode_op r in
      { cid; op })

(* --- full-state snapshots --- *)

let put_fido2 w (f : fido2_state) =
  Wire.bytes w f.cm;
  put_point w f.record_vk;
  put_scalar w f.key.Tpe.x;
  Wire.list w put_batch f.batches;
  Wire.list w
    (fun w (b, at) ->
      put_batch w b;
      put_float w at)
    f.pending

let read_fido2 r : fido2_state =
  let cm = Wire.read_bytes r in
  let record_vk = read_point r in
  let x = read_scalar r in
  let batches = Wire.read_list r read_batch in
  let pending =
    Wire.read_list r (fun r ->
        let b = read_batch r in
        let at = read_float r in
        (b, at))
  in
  {
    cm;
    record_vk;
    key = { Tpe.x; x_pub = Point.mul_base x };
    batches;
    pending;
    signing = None;
    signing_record = None;
    client_commit = None;
  }

let put_totp w (s : totp_state) =
  Wire.bytes w s.cm_totp;
  Wire.list w (fun w reg -> Wire.bytes w (Totp_protocol.encode_registration reg)) s.registrations;
  put_opt
    (fun w (nonce, (o : Totp_protocol.outcome)) ->
      Wire.bytes w nonce;
      Wire.u32 w o.Totp_protocol.code;
      Wire.bytes w o.Totp_protocol.hmac;
      Wire.bytes w o.Totp_protocol.ct)
    w s.last_auth

let read_totp r : totp_state =
  let cm_totp = Wire.read_bytes r in
  let registrations =
    Wire.read_list r (fun r ->
        match Totp_protocol.decode_registration (Wire.read_bytes r) with
        | Some reg -> reg
        | None -> raise (Wire.Malformed "bad totp registration"))
  in
  let last_auth =
    read_opt
      (fun r ->
        let nonce = Wire.read_bytes r in
        let code = Wire.read_u32 r in
        let hmac = Wire.read_bytes r in
        let ct = Wire.read_bytes r in
        (nonce, { Totp_protocol.code; hmac; ok = true; ct; timings = zero_timings }))
      r
  in
  { cm_totp; registrations; last_auth }

let put_pw w (s : pw_state) =
  put_point w s.client_pub;
  put_scalar w s.k;
  Wire.list w (fun w id -> Wire.bytes w id) s.ids

let read_pw r : pw_state =
  let client_pub = read_point r in
  let k = read_scalar r in
  let ids = Wire.read_list r Wire.read_bytes in
  { client_pub; k; k_pub = Point.mul_base k; ids }

let put_client w (c : client_state) =
  Wire.bytes w c.account_token;
  put_opt put_fido2 w c.fido2;
  put_opt put_totp w c.totp;
  put_opt put_pw w c.pw;
  Wire.list w put_record c.records;
  put_opt (fun w v -> Wire.u32 w v) w c.policy.max_auths_per_window;
  put_float w c.policy.window_seconds;
  Wire.list w put_float c.recent_auths;
  put_opt (fun w b -> Wire.bytes w b) w c.backup;
  put_opt (fun w d -> Wire.bytes w d) w c.last_migrate

let read_client r : client_state =
  let account_token = Wire.read_bytes r in
  let fido2 = read_opt read_fido2 r in
  let totp = read_opt read_totp r in
  let pw = read_opt read_pw r in
  let records = Wire.read_list r read_record in
  let max_auths = read_opt Wire.read_u32 r in
  let window_seconds = read_float r in
  let recent_auths = Wire.read_list r read_float in
  let backup = read_opt Wire.read_bytes r in
  let last_migrate = read_opt Wire.read_bytes r in
  {
    account_token;
    fido2;
    totp;
    pw;
    records;
    policy = { default_policy with max_auths_per_window = max_auths; window_seconds };
    recent_auths;
    backup;
    last_migrate;
    (* the Merkle tree is derived state: rebuilt from the decoded records
       (oldest first) so snapshot bytes stay canonical and comparable *)
    tree = Larch_merkle.Merkle.Tree.of_leaves (List.rev_map Record.encode records);
  }

let encode_clients (clients : clients) : string =
  let cids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) clients []) in
  Wire.encode (fun w ->
      Wire.list w
        (fun w cid ->
          Wire.bytes w cid;
          put_client w (Hashtbl.find clients cid))
        cids)

let decode_clients (s : string) : (clients, string) result =
  Wire.decode s (fun r ->
      let clients : clients = Hashtbl.create 8 in
      let pairs =
        Wire.read_list r (fun r ->
            let cid = Wire.read_bytes r in
            let c = read_client r in
            (cid, c))
      in
      List.iter (fun (cid, c) -> Hashtbl.replace clients cid c) pairs;
      clients)

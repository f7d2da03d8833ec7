(* Splitting trust across multiple log services (§6).

   The user enrolls with n logs and picks a threshold t: authentication
   succeeds whenever t logs are online, and auditing is complete whenever
   n − t + 1 logs are reachable (any t-subset that served an authentication
   intersects any (n−t+1)-subset).

   Implemented in full for passwords: the client (trusted at enrollment)
   deals Shamir shares k_i of the joint key k to the logs; per
   authentication it collects y_i = c₂^(k_i) from any t logs and
   recombines c₂^k in the exponent with Lagrange coefficients.  Every
   participating log verifies the same one-out-of-many proofs and stores
   the same encrypted record.

   Each log sits behind its own {!Larch_net.Transport}, so a log can be
   taken down administratively ({!set_online}) or given a fault injector
   ({!set_injector}); authentication fails over from unreachable logs to
   any other online subset of size t mid-flight.

   FIDO2/TOTP generalize the same way via threshold ECDSA / multi-party GC
   (the paper defers to existing protocols [24, 80, 13]); this module
   exposes the password deployment plus the availability/audit quorum
   machinery shared by all methods. *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
module Shamir = Larch_mpc.Shamir
module Channel = Larch_net.Channel
module Transport = Larch_net.Transport
module Events = Larch_obs.Events
module Merkle = Larch_merkle.Merkle

type t = {
  logs : Log_service.t array;
  transports : Transport.t array;
  threshold : int;
  online : bool array;
  rand : int -> string;
}

(* With [disk] given, each of the n logs owns an independent store on the
   shared disk (directories log0/, log1/, …): a restart of log i recovers
   its own snapshot + WAL without touching its peers. *)
let create ?policy ?net ?disk ?checkpoint_every ~(n : int) ~(threshold : int)
    ~(rand_bytes : int -> string) () : t =
  if threshold < 1 || threshold > n then invalid_arg "Multilog.create: bad threshold";
  let logs =
    Array.init n (fun i ->
        let store =
          Option.map
            (fun disk -> Larch_store.Store.open_ ~disk ~dir:(Printf.sprintf "log%d" i) ())
            disk
        in
        Log_service.create ?store ?checkpoint_every ~rand_bytes ())
  in
  let transports =
    Array.init n (fun i ->
        let label = Printf.sprintf "log%d" i in
        let tr = Transport.create ~label ?policy ?net (Channel.create ~label ()) in
        Transport.on_restart tr (fun () -> Log_service.restart logs.(i));
        tr)
  in
  { logs; transports; threshold; online = Array.make n true; rand = rand_bytes }

let n_logs (t : t) = Array.length t.logs

let set_online (t : t) (i : int) (up : bool) =
  t.online.(i) <- up;
  Transport.set_admin_down t.transports.(i) (not up)

let set_injector (t : t) (i : int) inj = Transport.set_injector t.transports.(i) inj

let online_indices (t : t) : int list =
  List.filter (fun i -> t.online.(i)) (List.init (n_logs t) (fun i -> i))

type client = {
  client_id : string;
  account_password : string;
  x : Scalar.t; (* ElGamal archive key *)
  x_pub : Point.t;
  k_pub : Point.t; (* K = g^k for the joint key *)
  mutable ids : string list;
  creds : (string, string * Point.t) Hashtbl.t; (* rp -> (id, k_id) *)
  names : (string, string) Hashtbl.t; (* Point.encode Hash(id) -> rp *)
}

exception Unavailable of string

(* Best-effort revocation at every reachable log; unreachable logs are
   skipped (their shares die with the client's account token anyway). *)
let revoke (t : t) (c : client) : unit =
  Array.iteri
    (fun i log ->
      try
        Transport.invoke t.transports.(i) ~op:"revoke" (fun () ->
            Log_service.revoke_all log ~client_id:c.client_id ~token:c.account_password)
      with Transport.Error _ | Types.Protocol_error _ -> ())
    t.logs;
  Hashtbl.reset c.creds;
  Hashtbl.reset c.names;
  c.ids <- []

(* Enrollment requires all n logs (one-time).  A failure partway rolls the
   already-enrolled logs back so the client can re-enroll cleanly. *)
let enroll (t : t) ~(client_id : string) ~(account_password : string) : client =
  let x, x_pub = Password_protocol.client_gen ~rand_bytes:t.rand in
  let k = Scalar.random_nonzero ~rand_bytes:t.rand in
  let shares = Shamir.split ~threshold:t.threshold ~n:(n_logs t) k ~rand_bytes:t.rand in
  let enrolled = ref [] in
  (try
     List.iteri
       (fun i share ->
         Transport.invoke t.transports.(i) ~op:"enroll" (fun () ->
             Log_service.enroll t.logs.(i) ~client_id ~account_password;
             ignore
               (Log_service.enroll_password_share t.logs.(i) ~client_id ~client_pub:x_pub
                  ~k_share:share.Shamir.value));
         enrolled := i :: !enrolled)
       shares
   with e ->
     List.iter
       (fun i ->
         try
           Transport.invoke t.transports.(i) ~op:"revoke" (fun () ->
               Log_service.revoke_all t.logs.(i) ~client_id ~token:account_password)
         with _ -> ())
       !enrolled;
     raise e);
  (* the client deletes k after dealing the shares *)
  {
    client_id;
    account_password;
    x;
    x_pub;
    k_pub = Point.mul_base k;
    ids = [];
    creds = Hashtbl.create 8;
    names = Hashtbl.create 8;
  }

(* Registration goes to every log so their identifier sets stay aligned;
   the client recombines Hash(id)^k from the first t responses.  A failure
   partway unregisters the identifier from the logs that already stored
   it, keeping all n identifier lists aligned. *)
let register (t : t) (c : client) ~(rp_name : string) : string =
  if Hashtbl.mem c.creds rp_name then Types.fail "already registered: %s" rp_name;
  let online = online_indices t in
  if List.length online < n_logs t then Types.fail "registration requires all logs online";
  let id = t.rand Password_protocol.id_len in
  (* every log stores the id and replies with Hash(id)^(k_i) *)
  let ys = Array.make (n_logs t) Point.infinity in
  let stored = ref [] in
  (try
     Array.iteri
       (fun i log ->
         ys.(i) <-
           Transport.invoke t.transports.(i) ~op:"pw.register" (fun () ->
               Log_service.pw_register log ~client_id:c.client_id ~id);
         stored := i :: !stored)
       t.logs
   with e ->
     List.iter
       (fun i ->
         try
           Transport.invoke t.transports.(i) ~op:"pw.unregister" (fun () ->
               ignore
                 (Log_service.pw_unregister t.logs.(i) ~client_id:c.client_id
                    ~token:c.account_password ~id))
         with _ -> ())
       !stored;
     raise e);
  let idxs = List.init t.threshold (fun i -> i + 1) in
  let h_id_k =
    List.fold_left
      (fun acc i ->
        Point.add acc (Point.mul (Shamir.lagrange_coefficient ~at:i idxs) ys.(i - 1)))
      Point.infinity idxs
  in
  let k_id = Point.mul_base (Scalar.random_nonzero ~rand_bytes:t.rand) in
  c.ids <- c.ids @ [ id ];
  Hashtbl.replace c.creds rp_name (id, k_id);
  Hashtbl.replace c.names (Point.encode (Larch_ec.Hash_to_curve.hash id)) rp_name;
  Password_protocol.password_string (Password_protocol.finish_register ~k_id ~y:h_id_k)

(* Authentication against any t logs, failing over from logs that are
   down or whose transport gives up to the remaining candidates. *)
let authenticate (t : t) (c : client) ~(rp_name : string) ~(now : float) : string =
  let id, k_id =
    match Hashtbl.find_opt c.creds rp_name with
    | Some v -> v
    | None -> Types.fail "not registered: %s" rp_name
  in
  let online = online_indices t in
  if List.length online < t.threshold then
    raise
      (Unavailable
         (Printf.sprintf "only %d of %d required logs online" (List.length online) t.threshold));
  let idx =
    match List.find_index (fun i -> i = id) c.ids with
    | Some i -> i
    | None -> Types.fail "identifier missing"
  in
  let r, req = Password_protocol.client_auth ~idx ~x:c.x ~ids:c.ids ~rand_bytes:t.rand in
  let shares = ref [] in
  let rec gather = function
    | [] -> ()
    | _ when List.length !shares >= t.threshold -> ()
    | i :: rest ->
        (match
           Transport.invoke t.transports.(i) ~op:"pw.auth" (fun () ->
               let y, _dleq, _att =
                 Log_service.pw_auth t.logs.(i) ~client_id:c.client_id ~ip:"multilog" ~now req
               in
               y)
         with
        | y -> shares := (i + 1, y) :: !shares
        | exception Transport.Error _ ->
            Larch_obs.Metrics.inc
              (Larch_obs.Metrics.counter Larch_obs.Metrics.default "multilog.failovers");
            Events.emit ~severity:Events.Warn ~method_:"password" ~client:c.client_id
              Events.Failover
              (Printf.sprintf "log%d unreachable, failing over (%d/%d shares)" i
                 (List.length !shares) t.threshold));
        gather rest
  in
  gather (List.init (n_logs t) (fun i -> i));
  let shares = List.rev !shares in
  if List.length shares < t.threshold then
    raise
      (Unavailable
         (Printf.sprintf "only %d of %d required logs reachable" (List.length shares) t.threshold));
  let lag_idxs = List.map fst shares in
  let y_combined =
    List.fold_left
      (fun acc (i, y) -> Point.add acc (Point.mul (Shamir.lagrange_coefficient ~at:i lag_idxs) y))
      Point.infinity shares
  in
  let pw = Password_protocol.finish_auth ~x:c.x ~log_pub:c.k_pub ~r ~k_id ~y:y_combined in
  Password_protocol.password_string pw

(* Audit: union of the records of all reachable logs, deduplicated by
   ciphertext.  Returns the entries plus whether coverage is guaranteed
   complete (>= n - t + 1 logs reachable). *)
type audit_result = { entries : (float * string option) list; complete : bool }

let audit (t : t) (c : client) : audit_result =
  let seen = Hashtbl.create 64 in
  let entries = ref [] in
  let reached = ref 0 in
  Array.iteri
    (fun i log ->
      match
        Transport.invoke t.transports.(i) ~op:"audit" (fun () ->
            Log_service.audit log ~client_id:c.client_id ~token:c.account_password)
      with
      | exception Transport.Error _ -> ()
      | records ->
          incr reached;
          List.iter
            (fun (r : Record.t) ->
              match r.Record.payload with
              | Record.Elgamal ct ->
                  let key = Larch_ec.Elgamal.encode ct in
                  if not (Hashtbl.mem seen key) then begin
                    Hashtbl.replace seen key ();
                    let h = Password_protocol.decrypt_record ~x:c.x ct in
                    entries :=
                      (r.Record.time, Hashtbl.find_opt c.names (Point.encode h)) :: !entries
                  end
              | Record.Symmetric _ -> ())
            records)
    t.logs;
  { entries = List.rev !entries; complete = !reached >= n_logs t - t.threshold + 1 }

(* --- split-view detection across replicas --- *)

(* Every participating log stores the same records in the same order, so
   their Merkle trees must agree: for any two reachable logs, the smaller
   tree must be a consistent prefix of the larger (equal sizes: equal
   roots).  A log that shows this client a forked history fails the
   consistency check against every honest replica, so with ≥3 reachable
   logs the culprit is the one in multiple bad pairs. *)
type split_view = {
  heads : (int * Merkle.Sth.t) list; (* reachable logs and their verified heads *)
  checked_pairs : int;
  bad_pairs : (int * int) list; (* pairs whose trees are not prefix-consistent *)
  suspects : int list; (* logs implicated by ≥2 bad pairs or a bad signature *)
}

let check_split_view (t : t) (c : client) : split_view =
  let heads = ref [] in
  let sig_bad = ref [] in
  Array.iteri
    (fun i log ->
      match
        Transport.invoke t.transports.(i) ~op:"tree_head" (fun () ->
            Log_service.tree_head log ~client_id:c.client_id ~token:c.account_password)
      with
      | exception Transport.Error _ -> ()
      | sth ->
          if Merkle.Sth.verify ~pk:(Log_service.sth_pub log) ~client_id:c.client_id sth then
            heads := (i, sth) :: !heads
          else sig_bad := i :: !sig_bad)
    t.logs;
  let heads = List.rev !heads in
  let checked = ref 0 in
  let bad = ref [] in
  List.iteri
    (fun a (i, (si : Merkle.Sth.t)) ->
      List.iteri
        (fun b (j, (sj : Merkle.Sth.t)) ->
          if b > a then begin
            incr checked;
            (* ask the log with the larger tree to prove it extends the
               smaller one *)
            let (lo, slo), (hi, shi) =
              if si.Merkle.Sth.size <= sj.Merkle.Sth.size then ((i, si), (j, sj))
              else ((j, sj), (i, si))
            in
            let consistent =
              match
                Transport.invoke t.transports.(hi) ~op:"consistency" (fun () ->
                    Log_service.consistency_proof t.logs.(hi) ~client_id:c.client_id
                      ~token:c.account_password ~old_size:slo.Merkle.Sth.size)
              with
              | exception (Transport.Error _ | Types.Protocol_error _) -> false
              | proof ->
                  Merkle.verify_consistency ~old_root:slo.Merkle.Sth.root
                    ~old_size:slo.Merkle.Sth.size ~new_root:shi.Merkle.Sth.root
                    ~new_size:shi.Merkle.Sth.size ~proof
            in
            if not consistent then begin
              bad := (lo, hi) :: !bad;
              Events.emit ~severity:Events.Warn ~client:c.client_id Events.Audit
                (Printf.sprintf "split view: log%d and log%d present inconsistent trees" lo hi)
            end
          end)
        heads)
    heads;
  let bad_pairs = List.rev !bad in
  let implicated i = List.length (List.filter (fun (a, b) -> a = i || b = i) bad_pairs) in
  let suspects =
    List.sort_uniq compare
      (!sig_bad @ List.filter_map (fun (i, _) -> if implicated i >= 2 then Some i else None) heads)
  in
  { heads; checked_pairs = !checked; bad_pairs; suspects }

(* Binds the log service's durable state to {!Larch_store.Store}.

   Runtime flow: every public [Log_service] entry point that mutates
   durable state commits one or more {!Log_state.entry} values — [apply]
   to the in-memory map plus [append] here — and ends with [sync], which
   group-commits the buffered WAL frames (one disk append, one fsync).
   The reply leaves the log only after [sync] returns, so an acknowledged
   operation is on disk by definition.

   Every [checkpoint_every] WAL records, [sync] also rolls the store to a
   new generation: the full client map is encoded canonically
   ({!Log_codec.encode_clients}) and written as a snapshot, bounding
   recovery replay time.

   [fsck] is the semantic half of `larch fsck` (the structural half —
   checksums, torn tails — is {!Larch_store.Store.verify}): it re-derives
   the state by replay and checks the invariants that make an audit log
   trustworthy: each client's Merkle tree matches its records, presignature
   cursor bounds and WAL-order consume monotonicity, and (online) that
   the live map and the replayed map encode byte-identically. *)

module Store = Larch_store.Store
module Disk = Larch_store.Disk
module Events = Larch_obs.Events

type t = {
  mutable store : Store.t;
  checkpoint_every : int; (* WAL records between snapshots *)
  mutable since_checkpoint : int;
}

let of_store ?(checkpoint_every = 128) (store : Store.t) : t =
  let since =
    (* records already sitting in the open WAL count toward the cadence *)
    (Store.recovered store).Store.tail |> List.length
  in
  { store; checkpoint_every; since_checkpoint = since }

let store (t : t) : Store.t = t.store

let replay_failure what msg =
  Types.fail "store recovery: %s (%s) — refusing to serve from damaged state" what msg

(* Rebuild the client map from the store's last recovery: decode the
   snapshot, then replay the WAL tail through the same [Log_state.apply]
   the runtime uses. *)
let recover (t : t) : Log_state.clients =
  let r = Store.recovered t.store in
  let clients =
    match r.Store.snapshot with
    | None -> Hashtbl.create 16
    | Some payload -> (
        match Log_codec.decode_clients payload with
        | Ok c -> c
        | Error m -> replay_failure "snapshot undecodable" m)
  in
  List.iter
    (fun bytes ->
      match Log_codec.decode_entry bytes with
      | Ok e -> Log_state.apply clients e
      | Error m -> replay_failure "WAL entry undecodable" m)
    r.Store.tail;
  clients

let append (t : t) (e : Log_state.entry) : unit =
  Store.append t.store (Log_codec.encode_entry e);
  t.since_checkpoint <- t.since_checkpoint + 1

let sync (t : t) (clients : Log_state.clients) : unit =
  Store.flush t.store;
  if t.since_checkpoint >= t.checkpoint_every then begin
    Store.checkpoint t.store (Log_codec.encode_clients clients);
    t.since_checkpoint <- 0
  end

(* Kill and restart the process this store belongs to: the disk loses its
   un-fsynced suffixes per its failure profile, then a fresh [Store.open_]
   recovers and the client map is rebuilt by replay.  Volatile session
   state disappears with the old map. *)
let reopen (t : t) : Log_state.clients =
  let disk = Store.disk t.store and dir = Store.dir t.store in
  Disk.crash disk;
  t.store <- Store.open_ ~disk ~dir ();
  t.since_checkpoint <- List.length (Store.recovered t.store).Store.tail;
  recover t

(* --- fsck: semantic invariants over the stored state --- *)

type fsck = {
  structural : Store.verify_report;
  wal_ops : int; (* decoded WAL entries across replayable generations *)
  clients : int;
  issues : string list; (* human-readable; empty = clean *)
}

let fsck_clean (r : fsck) : bool = Store.verify_clean r.structural && r.issues = []

let check_client (cid : string) (c : Log_state.client_state) (issues : string list ref) : unit =
  let record_count = List.length c.Log_state.records in
  (* the derived Merkle tree must agree with the records it summarizes *)
  let module Merkle = Larch_merkle.Merkle in
  let expect =
    Merkle.Tree.of_leaves (List.rev_map Record.encode c.Log_state.records)
  in
  if Merkle.Tree.size c.Log_state.tree <> record_count then
    issues :=
      Printf.sprintf "client %s: merkle tree has %d leaves but %d records stored" cid
        (Merkle.Tree.size c.Log_state.tree) record_count
      :: !issues
  else if not (String.equal (Merkle.Tree.root c.Log_state.tree) (Merkle.Tree.root expect)) then
    issues := Printf.sprintf "client %s: merkle tree root does not verify" cid :: !issues;
  match c.Log_state.fido2 with
  | None -> ()
  | Some f ->
      List.iteri
        (fun i (b : Two_party_ecdsa.log_batch) ->
          let len = Array.length b.Two_party_ecdsa.entries in
          if b.Two_party_ecdsa.next < 0 || b.Two_party_ecdsa.next > len then
            issues :=
              Printf.sprintf "client %s: batch %d cursor %d out of bounds [0,%d]" cid i
                b.Two_party_ecdsa.next len
              :: !issues)
        f.Log_state.batches;
      List.iteri
        (fun i ((b : Two_party_ecdsa.log_batch), _) ->
          if b.Two_party_ecdsa.next <> 0 then
            issues :=
              Printf.sprintf "client %s: staged batch %d has consumed cursor %d" cid i
                b.Two_party_ecdsa.next
              :: !issues)
        f.Log_state.pending

(* Presignature consume totals must march forward one at a time in WAL
   order; re-enrollment and revocation reset the count, an abort can only
   burn forward (never reveal an older index again). *)
let check_consume_order (entries : Log_state.entry list) (issues : string list ref) : unit =
  let totals : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun { Log_state.cid; op } ->
      match op with
      | Log_state.Enroll_fido2 _ | Log_state.Revoke -> Hashtbl.remove totals cid
      | Log_state.Fido2_consume { total; _ } ->
          (match Hashtbl.find_opt totals cid with
          | Some prev when total <> prev + 1 ->
              issues :=
                Printf.sprintf
                  "client %s: presig consume total went %d -> %d (must increase by 1)" cid prev
                  total
                :: !issues
          | _ -> ());
          Hashtbl.replace totals cid total
      | Log_state.Fido2_abort { consumed } ->
          (match Hashtbl.find_opt totals cid with
          | Some prev when consumed < prev ->
              issues :=
                Printf.sprintf "client %s: abort rewound presig total %d -> %d" cid prev consumed
                :: !issues
          | _ -> ());
          Hashtbl.replace totals cid (max consumed (Option.value (Hashtbl.find_opt totals cid) ~default:0))
      | _ -> ())
    entries

let fsck ?(live : Log_state.clients option) (t : t) : fsck =
  Store.flush t.store;
  let disk = Store.disk t.store and dir = Store.dir t.store in
  let structural = Store.verify_disk disk ~dir in
  let issues = ref [] in
  (* Re-derive the recovery base as a fresh open would see the disk NOW —
     checkpoints since our own recovery have rolled generations, so the
     recorded recovery is stale. *)
  let snap, _skipped = Larch_store.Snapshot.latest_valid disk ~dir in
  let base_gen = match snap with Some (g, _) -> g | None -> 0 in
  let replayed : Log_state.clients = Hashtbl.create 16 in
  (match snap with
  | None -> ()
  | Some (_, payload) -> (
      match Log_codec.decode_clients payload with
      | Ok c -> Hashtbl.iter (fun k v -> Hashtbl.replace replayed k v) c
      | Error m -> issues := Printf.sprintf "snapshot undecodable: %s" m :: !issues));
  let wal_entries =
    (* everything at or after the recovery-base snapshot replays on top *)
    let gens = List.filter (fun g -> g >= base_gen) (Store.wal_gens disk ~dir) in
    List.concat_map
      (fun g ->
        let entries, _, _ = Larch_store.Wal.scan disk ~file:(Store.wal_file dir g) in
        entries)
      (List.sort compare gens)
  in
  let decoded =
    List.filter_map
      (fun bytes ->
        match Log_codec.decode_entry bytes with
        | Ok e -> Some e
        | Error m ->
            issues := Printf.sprintf "WAL entry undecodable: %s" m :: !issues;
            None)
      wal_entries
  in
  let replay_failed = ref false in
  List.iter
    (fun e ->
      if not !replay_failed then
        try Log_state.apply replayed e
        with Types.Protocol_error m ->
          replay_failed := true;
          issues := Printf.sprintf "WAL replay failed: %s" m :: !issues)
    decoded;
  if not !replay_failed then begin
    Hashtbl.iter (fun cid c -> check_client cid c issues) replayed;
    check_consume_order decoded issues;
    match live with
    | None -> ()
    | Some live ->
        if Log_codec.encode_clients live <> Log_codec.encode_clients replayed then
          issues := "live state and replayed state differ (replay-match failed)" :: !issues;
        (* the tree is derived state outside the snapshot encoding, so the
           replay-match above cannot see it: compare the live signed-head
           inputs against the tree a fresh recovery would rebuild *)
        let module Merkle = Larch_merkle.Merkle in
        Hashtbl.iter
          (fun cid (lc : Log_state.client_state) ->
            match Hashtbl.find_opt replayed cid with
            | None -> ()
            | Some rc ->
                if
                  Merkle.Tree.size lc.Log_state.tree <> Merkle.Tree.size rc.Log_state.tree
                  || not
                       (String.equal
                          (Merkle.Tree.root lc.Log_state.tree)
                          (Merkle.Tree.root rc.Log_state.tree))
                then
                  issues :=
                    Printf.sprintf "client %s: live merkle root differs from replayed tree" cid
                    :: !issues)
          live
  end;
  { structural; wal_ops = List.length decoded; clients = Hashtbl.length replayed; issues = List.rev !issues }

(* RFC 6962-style append-only Merkle tree over log records.

   The log service keeps one tree per client: its only tamper-evidence
   structure (rollback, rewrite and fork detection) and the source of
   O(log n) audits.  Leaves are the canonical record encodings
   ({!Record.encode}), hashed with the usual CT domain separation:
   leaf = H(0x00 ‖ data), node = H(0x01 ‖ left ‖ right), so a leaf hash
   can never collide with an interior node.

   The tree caches every *complete* subtree hash (level l, index i covers
   leaves [i·2^l, (i+1)·2^l)): an append fills in the subtrees it
   completes — amortized O(1) hashing, O(log n) worst case — and
   root/proof generation walks cached nodes, recursing only along the
   ragged right edge, so inclusion and consistency proofs cost
   O(log² n) hash lookups with O(log n) fresh hashing.

   Verification ({!verify_inclusion}, {!verify_consistency}) is pure —
   the client side never materializes a tree — and follows the RFC 9162
   algorithms bit for bit.

   Signed tree heads bind (client id, size, root, time) under the log's
   P-256 STH key with RFC 6979 deterministic ECDSA, so seeded worlds stay
   byte-reproducible. *)

module Sha256 = Larch_hash.Sha256
module Wire = Larch_net.Wire
module Bytesx = Larch_util.Bytesx

let hash_len = 32

let leaf_hash (data : string) : string = Sha256.digest ("\x00" ^ data)
let node_hash (l : string) (r : string) : string = Sha256.digest_list [ "\x01"; l; r ]
let empty_root : string = Sha256.digest ""

let is_pow2 (n : int) : bool = n > 0 && n land (n - 1) = 0

(* Largest power of two strictly less than [n]; requires n >= 2. *)
let split_point (n : int) : int =
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  !k

module Tree = struct
  type t = {
    mutable leaves : string array; (* leaf hashes, capacity >= n *)
    mutable n : int;
    nodes : (int * int, string) Hashtbl.t; (* (level, index) -> complete subtree hash *)
  }

  let create () : t = { leaves = Array.make 16 ""; n = 0; nodes = Hashtbl.create 64 }
  let size (t : t) : int = t.n

  (* Hash of the complete subtree at (level, index); level 0 is the leaf
     array, higher levels are always cached by [append]. *)
  let node (t : t) (level : int) (idx : int) : string =
    if level = 0 then t.leaves.(idx) else Hashtbl.find t.nodes (level, idx)

  let append (t : t) (leaf : string) : unit =
    if t.n = Array.length t.leaves then begin
      let grown = Array.make (2 * Array.length t.leaves) "" in
      Array.blit t.leaves 0 grown 0 t.n;
      t.leaves <- grown
    end;
    t.leaves.(t.n) <- leaf_hash leaf;
    t.n <- t.n + 1;
    (* fill in every subtree this leaf completes *)
    let l = ref 1 in
    while t.n mod (1 lsl !l) = 0 do
      let idx = (t.n lsr !l) - 1 in
      Hashtbl.replace t.nodes (!l, idx)
        (node_hash (node t (!l - 1) (2 * idx)) (node t (!l - 1) ((2 * idx) + 1)));
      incr l
    done

  let of_leaves (leaves : string list) : t =
    let t = create () in
    List.iter (append t) leaves;
    t

  (* RFC 6962 MTH over the leaf range [lo, hi); complete aligned subtrees
     come straight out of the cache. *)
  let rec hash_range (t : t) (lo : int) (hi : int) : string =
    let size = hi - lo in
    if size = 1 then t.leaves.(lo)
    else if is_pow2 size && lo land (size - 1) = 0 then
      let level = ref 0 and s = ref size in
      begin
        while !s > 1 do
          incr level;
          s := !s lsr 1
        done;
        node t !level (lo lsr !level)
      end
    else
      let k = split_point size in
      node_hash (hash_range t lo (lo + k)) (hash_range t (lo + k) hi)

  let root_at (t : t) (m : int) : string =
    if m < 0 || m > t.n then invalid_arg "Merkle.Tree.root_at"
    else if m = 0 then empty_root
    else hash_range t 0 m

  let root (t : t) : string = root_at t t.n

  (* RFC 6962 PATH(m, D[lo:hi]). *)
  let rec path (t : t) (lo : int) (hi : int) (m : int) : string list =
    if hi - lo <= 1 then []
    else
      let k = split_point (hi - lo) in
      if m < lo + k then path t lo (lo + k) m @ [ hash_range t (lo + k) hi ]
      else path t (lo + k) hi m @ [ hash_range t lo (lo + k) ]

  let inclusion_at (t : t) ~(index : int) ~(size : int) : string list =
    if size < 1 || size > t.n || index < 0 || index >= size then
      invalid_arg "Merkle.Tree.inclusion_at";
    path t 0 size index

  let inclusion (t : t) ~(index : int) : string list = inclusion_at t ~index ~size:t.n

  (* RFC 6962 SUBPROOF(m, D[lo:hi], b). *)
  let rec subproof (t : t) (m : int) (lo : int) (hi : int) (b : bool) : string list =
    let size = hi - lo in
    if m = size then if b then [] else [ hash_range t lo hi ]
    else
      let k = split_point size in
      if m <= k then subproof t m lo (lo + k) b @ [ hash_range t (lo + k) hi ]
      else subproof t (m - k) (lo + k) hi false @ [ hash_range t lo (lo + k) ]

  let consistency (t : t) ~(old_size : int) ~(new_size : int) : string list =
    if old_size < 0 || old_size > new_size || new_size > t.n then
      invalid_arg "Merkle.Tree.consistency";
    if old_size = 0 || old_size = new_size then []
    else subproof t old_size 0 new_size true
end

(* --- pure verification (RFC 9162 §2.1.3.2 / §2.1.4.2) --- *)

let well_formed (proof : string list) : bool =
  List.for_all (fun h -> String.length h = hash_len) proof

let verify_inclusion ~(root : string) ~(size : int) ~(index : int) ~(leaf : string)
    ~(proof : string list) : bool =
  if index < 0 || index >= size || not (well_formed proof) then false
  else begin
    let r = ref (leaf_hash leaf) in
    let fn = ref index and sn = ref (size - 1) in
    let ok = ref true in
    List.iter
      (fun p ->
        if !ok then
          if !sn = 0 then ok := false
          else begin
            if !fn land 1 = 1 || !fn = !sn then begin
              r := node_hash p !r;
              if !fn land 1 = 0 then
                while not (!fn = 0 || !fn land 1 = 1) do
                  fn := !fn lsr 1;
                  sn := !sn lsr 1
                done
            end
            else r := node_hash !r p;
            fn := !fn lsr 1;
            sn := !sn lsr 1
          end)
      proof;
    !ok && !sn = 0 && Bytesx.ct_equal !r root
  end

let verify_consistency ~(old_root : string) ~(old_size : int) ~(new_root : string)
    ~(new_size : int) ~(proof : string list) : bool =
  if old_size < 0 || new_size < old_size || not (well_formed proof) then false
  else if old_size = 0 then proof = [] (* the empty tree is a prefix of anything *)
  else if old_size = new_size then proof = [] && Bytesx.ct_equal old_root new_root
  else
    (* 0 < old_size < new_size: when the old tree is a complete subtree its
       root is the implicit first path element *)
    match (if is_pow2 old_size then old_root :: proof else proof) with
    | [] -> false
    | first :: rest ->
        let fn = ref (old_size - 1) and sn = ref (new_size - 1) in
        while !fn land 1 = 1 do
          fn := !fn lsr 1;
          sn := !sn lsr 1
        done;
        let fr = ref first and sr = ref first in
        let ok = ref true in
        List.iter
          (fun p ->
            if !ok then
              if !sn = 0 then ok := false
              else begin
                if !fn land 1 = 1 || !fn = !sn then begin
                  fr := node_hash p !fr;
                  sr := node_hash p !sr;
                  if !fn land 1 = 0 then
                    while not (!fn = 0 || !fn land 1 = 1) do
                      fn := !fn lsr 1;
                      sn := !sn lsr 1
                    done
                end
                else sr := node_hash !sr p;
                fn := !fn lsr 1;
                sn := !sn lsr 1
              end)
          rest;
        !ok && !sn = 0 && Bytesx.ct_equal !fr old_root && Bytesx.ct_equal !sr new_root

(* --- signed tree heads --- *)

module Sth = struct
  type t = { size : int; root : string; time : float; signature : string }

  (* Domain-separated digest binding the head to one client's tree: a head
     signed for one client can never vouch for another's history. *)
  let digest ~(client_id : string) ~(size : int) ~(root : string) ~(time : float) : string =
    Sha256.digest_list
      [
        "larch-sth";
        client_id;
        Bytesx.be64 (Int64.of_int size);
        root;
        Bytesx.be64 (Int64.bits_of_float time);
      ]

  let sign ~(sk : Larch_ec.P256.Scalar.t) ~(client_id : string) ~(size : int) ~(root : string)
      ~(time : float) : t =
    let sg = Larch_ec.Ecdsa.sign_digest ~sk (digest ~client_id ~size ~root ~time) in
    { size; root; time; signature = Larch_ec.Ecdsa.encode sg }

  let verify ~(pk : Larch_ec.Point.t) ~(client_id : string) (s : t) : bool =
    s.size >= 0
    && String.length s.root = hash_len
    &&
    match Larch_ec.Ecdsa.decode s.signature with
    | Some sg ->
        Larch_ec.Ecdsa.verify_digest ~pk
          (digest ~client_id ~size:s.size ~root:s.root ~time:s.time)
          sg
    | None -> false

  let put (w : Wire.writer) (s : t) : unit =
    Wire.u64 w (Int64.of_int s.size);
    Wire.fixed w s.root;
    Wire.u64 w (Int64.bits_of_float s.time);
    Wire.fixed w s.signature

  let read (r : Wire.reader) : t =
    let size = Int64.to_int (Wire.read_u64 r) in
    if size < 0 then raise (Wire.Malformed "bad sth size");
    let root = Wire.read_fixed r hash_len in
    let time = Int64.float_of_bits (Wire.read_u64 r) in
    let signature = Wire.read_fixed r 64 in
    { size; root; time; signature }

  let encode (s : t) : string = Wire.encode (fun w -> put w s)
  let decode (s : string) : (t, string) result = Wire.decode s read
end

(* --- proof codec --- *)

(* 256 path elements would describe a tree of 2^128 leaves; anything
   longer is garbage, not a proof. *)
let max_proof_len = 256

let put_proof (w : Wire.writer) (proof : string list) : unit =
  Wire.u32 w (List.length proof);
  List.iter (fun h -> Wire.fixed w h) proof

let read_proof (r : Wire.reader) : string list =
  let n = Wire.read_u32 r in
  if n < 0 || n > max_proof_len then raise (Wire.Malformed "bad proof length");
  List.init n (fun _ -> Wire.read_fixed r hash_len)

let encode_proof (p : string list) : string = Wire.encode (fun w -> put_proof w p)
let decode_proof (s : string) : (string list, string) result = Wire.decode s read_proof

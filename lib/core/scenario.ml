(* The seeded-world harness shared by every deterministic scenario: the
   CLI worlds (`larch faults|swarm|overload|report|audit|fsck|recover`),
   the swarm and fault test matrices, and the swarm bench.  See
   scenario.mli. *)

module Clock = Larch_util.Clock
module Obs = Larch_obs
module Transport = Larch_net.Transport
module Disk = Larch_store.Disk
module Store = Larch_store.Store

type t = { rand : int -> string; out : Buffer.t }

let base_time = 1_700_000_000.
let line (w : t) fmt = Printf.ksprintf (fun s -> Buffer.add_string w.out (s ^ "\n")) fmt
let digest (s : string) : string = Larch_util.Hex.encode (Larch_hash.Sha256.digest s)

let run ?(events = false) ~(entropy : string) (body : t -> 'a) : 'a * string =
  Clock.set base_time;
  Obs.Runtime.set_time_source (Some Clock.now);
  Obs.Runtime.set_events events;
  if events then Obs.Events.clear ();
  Transport.reset_ordinals ();
  let w = { rand = Larch_hash.Drbg.of_seed entropy; out = Buffer.create 4096 } in
  Fun.protect
    ~finally:(fun () ->
      Obs.Runtime.set_events false;
      Obs.Runtime.set_time_source None;
      Clock.use_real_time ())
    (fun () ->
      let r = body w in
      (r, digest (Buffer.contents w.out)))

let store_dir = "log"

let store_log ?checkpoint_every ?objection_window ~(seed : string) (rand : int -> string) :
    Disk.t * Log_service.t =
  let disk = Disk.create ~seed () in
  let store = Store.open_ ~disk ~dir:store_dir () in
  (disk, Log_service.create ?checkpoint_every ?objection_window ~store ~rand_bytes:rand ())

let generation (log : Log_service.t) : int =
  Store.generation (Log_persist.store (Option.get (Log_service.persist log)))

(* --- sessions --------------------------------------------------------- *)

type proto = Fido2 | Totp | Password

let proto_name = function Fido2 -> "fido2" | Totp -> "totp" | Password -> "password"

let client ?policy ?net ?async ?(password = "pw") ~(rand : int -> string) (log : Log_service.t)
    (cid : string) : Client.t =
  let c = Client.create ?policy ?net ~client_id:cid ~account_password:password ~log ~rand_bytes:rand () in
  Option.iter (fun la -> Log_async.attach la ~client_id:cid c.Client.transport) async;
  c

let rejected () = failwith "relying party rejected"

let register (c : Client.t) (rp : Relying_party.t) (proto : proto) : unit -> unit =
  let user = c.Client.client_id and rp_name = rp.Relying_party.name in
  match proto with
  | Fido2 ->
      let pk = Client.register_fido2 c ~rp_name in
      Relying_party.fido2_register rp ~username:user ~pk;
      fun () ->
        let challenge = Relying_party.fido2_challenge rp ~username:user in
        let assertion = Client.authenticate_fido2 c ~rp_name ~challenge in
        if not (Relying_party.fido2_login rp ~username:user assertion) then rejected ()
  | Totp ->
      let totp_key = Relying_party.totp_register rp ~username:user in
      Client.register_totp c ~rp_name ~totp_key;
      fun () -> ignore (Client.authenticate_totp c ~rp_name ~time:(Clock.now ()))
  | Password ->
      let password = Client.register_password c ~rp_name in
      Relying_party.password_set rp ~username:user ~password;
      fun () ->
        let pw = Client.authenticate_password c ~rp_name in
        if not (Relying_party.password_login rp ~username:user ~password:pw) then rejected ()

let session ?policy ?net ?async ?password ?(rp_name = "rp.example") ~rand log cid
    ~(presignatures : int) (protos : proto list) : Client.t * (proto -> unit) =
  let c = client ?policy ?net ?async ?password ~rand log cid in
  Client.enroll ~presignature_count:presignatures c;
  let rp = Relying_party.create ~name:rp_name ~rand_bytes:rand () in
  let logins = List.map (fun p -> (p, register c rp p)) protos in
  (c, fun p -> (List.assoc p logins) ())

(* --- typed outcomes --------------------------------------------------- *)

type outcome =
  | Completed
  | Transport_error of Transport.error
  | Protocol_error of string
  | Log_misbehaved of string

let attempt (f : unit -> unit) : outcome =
  match f () with
  | () -> Completed
  | exception Transport.Error e -> Transport_error e
  | exception Types.Protocol_error m -> Protocol_error m
  | exception Client.Log_misbehaved m -> Log_misbehaved m

(* --- transcript footers ----------------------------------------------- *)

let disk_counts ?(rot = true) (disk : Disk.t) : string =
  let ds = Disk.stats disk in
  Printf.sprintf "appends=%d fsyncs=%d bytes=%d crashes=%d%s" ds.Disk.appends ds.Disk.fsyncs
    ds.Disk.bytes_written ds.Disk.crashes
    (if rot then Printf.sprintf " torn=%d rotted=%d" ds.Disk.torn ds.Disk.rotted else "")

let fsck (log : Log_service.t) : Log_persist.fsck = Option.get (Log_service.fsck log)
let verdict (fr : Log_persist.fsck) = if Log_persist.fsck_clean fr then "clean" else "DIRTY"

let issues (fr : Log_persist.fsck) =
  match fr.Log_persist.issues with [] -> "" | l -> " " ^ String.concat "; " l

let fsck_line ?(gen = false) (log : Log_service.t) (fr : Log_persist.fsck) : string =
  Printf.sprintf "fsck %s: %swal_ops=%d clients=%d%s" (verdict fr)
    (if gen then Printf.sprintf "gen=%d " (generation log) else "")
    fr.Log_persist.wal_ops fr.Log_persist.clients (issues fr)

let admission_line (la : Log_async.t) : string =
  Printf.sprintf "admission batches=%d batched_reqs=%d" (Log_async.batches la)
    (Log_async.batched_requests la)

(* --- the run-twice driver --------------------------------------------- *)

let guard (f : unit -> int) : int =
  try f ()
  with Larch_runtime.Runtime.Deadlock stuck ->
    prerr_endline "larch: deadlock; stuck fibers:";
    List.iter (fun s -> prerr_endline ("  " ^ s)) stuck;
    2

let twice ~(reproduce : string) ?(ok = fun _ -> true) ~(show : 'a -> unit)
    (world : unit -> 'a * string) : int =
  guard (fun () ->
      let r1, d1 = world () in
      show r1;
      let _, d2 = world () in
      Printf.printf "  transcript digest run 1: %s\n  transcript digest run 2: %s\n"
        (String.sub d1 0 16) (String.sub d2 0 16);
      let ok = ok r1 in
      if d1 = d2 && ok then begin
        print_endline "  deterministic: run 2 replayed run 1 byte for byte";
        Printf.printf "  reproduce with: %s\n" reproduce;
        0
      end
      else begin
        if d1 <> d2 then print_endline "  NOT deterministic: transcripts differ";
        if not ok then print_endline "  FAILED: a check did not hold (see above)";
        1
      end)

(* Account recovery and tamper-evident auditing (§9 extensions).

   Alice backs up her encrypted client state at the log, loses every
   device, recovers with only her log-account password, and keeps auditing
   with Merkle-tree verification that would expose a log rewriting history.

     dune exec examples/account_recovery.exe *)

open Larch_core

let () =
  let rand = Larch_hash.Drbg.system () in
  let log = Log_service.create ~rand_bytes:rand () in
  let alice =
    Client.create ~client_id:"alice" ~account_password:"a strong log password" ~log
      ~rand_bytes:rand ()
  in
  Client.enroll ~presignature_count:8 alice;

  let rp = Relying_party.create ~name:"mail.example.com" ~rand_bytes:rand () in
  let pw = Client.register_password alice ~rp_name:"mail.example.com" in
  Relying_party.password_set rp ~username:"alice" ~password:pw;
  ignore (Client.authenticate_password alice ~rp_name:"mail.example.com");
  print_endline "registered and logged in at mail.example.com";

  (* Encrypted state backup: the log stores a blob it cannot read. *)
  let blob_size = Backup.store alice in
  Printf.printf "backed up encrypted client state at the log (%d bytes)\n" blob_size;

  (* Catastrophe: every device is gone.  Recover from the password alone. *)
  print_endline "...all devices lost...";
  (match
     Backup.recover ~log ~client_id:"alice" ~account_password:"a strong log password"
       ~rand_bytes:rand
   with
  | Error e -> Printf.printf "recovery failed: %s\n" e
  | Ok restored ->
      let pw' = Client.authenticate_password restored ~rp_name:"mail.example.com" in
      Printf.printf "recovered on a new device; password login %s\n"
        (if Relying_party.password_login rp ~username:"alice" ~password:pw' then "works"
         else "FAILED");
      (* Verified audit: the client checks the log's signed Merkle tree head. *)
      (match Client.audit_verified restored with
      | Ok entries ->
          Printf.printf "verified audit: %d entries, tree consistent\n" (List.length entries)
      | Error e -> Printf.printf "verified audit FAILED: %s\n" e);
      (* A wrong password cannot open the backup. *)
      match
        Backup.recover ~log ~client_id:"alice" ~account_password:"guess" ~rand_bytes:rand
      with
      | Error e -> Printf.printf "wrong password rejected: %s\n" e
      | Ok _ -> print_endline "BUG: wrong password accepted")

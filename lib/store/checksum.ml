(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

   Every WAL frame and snapshot carries one of these so recovery can tell
   a valid record from a torn or rotted tail.  CRC-32 rather than a
   cryptographic hash: the store defends against *accidents* (torn writes,
   bit rot), not adversarial tampering — integrity against an adversary is
   the per-client RFC 6962 Merkle tree's job, one layer up. *)

let table : int array Lazy.t =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* Streaming interface: fold [update] over chunks, [finish] at the end. *)
let init = 0xFFFFFFFF

let update (crc : int) (s : string) : int =
  let t = Lazy.force table in
  let c = ref crc in
  String.iter (fun ch -> c := t.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c

let finish (crc : int) : int = crc lxor 0xFFFFFFFF land 0xFFFFFFFF
let crc32 (s : string) : int = finish (update init s)

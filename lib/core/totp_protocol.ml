(* Split-secret TOTP authentication (§4): registration message formats and
   the per-authentication 2PC execution.

   At registration the relying party hands the client a TOTP secret; the
   client samples a random 128-bit identifier, XOR-splits the secret, and
   sends (id, klog_id) to the log.  Authentication executes the
   [Larch_statements.totp_circuit] with the Yao runner: the log (evaluator)
   learns only (ok, ct) — an encrypted record — and the client (garbler)
   learns the full HMAC, which it truncates to the 6-digit code. *)

module Wire = Larch_net.Wire
module Statements = Larch_circuit.Larch_statements
module Yao = Larch_mpc.Yao
module Channel = Larch_net.Channel

type registration = { id : string (* 16B *); klog : string (* 20B share of the TOTP key *) }

let encode_registration (r : registration) : string =
  Wire.encode (fun w ->
      Wire.bytes w r.id;
      Wire.bytes w r.klog)

let decode_registration (s : string) : registration option =
  match
    Wire.decode s (fun rd ->
        let id = Wire.read_bytes rd in
        let klog = Wire.read_bytes rd in
        { id; klog })
  with
  | Ok r when String.length r.id = Statements.totp_id_len && String.length r.klog = Statements.totp_key_len ->
      Some r
  | _ -> None

(* The log learns ok(1) ‖ ct(128); the client's 160 HMAC bits come back
   gated by ok. *)
let evaluator_output_bits = 1 + (8 * Statements.totp_id_len)

type outcome = {
  code : int; (* the 6-digit TOTP code, client side *)
  hmac : string; (* full 20-byte HMAC the circuit released *)
  ok : bool; (* log-side validity bit *)
  ct : string; (* log-side encrypted record (16B) *)
  timings : Yao.timings; (* offline/online/evaluator split for the bench *)
}

let run_auth_on ~(domains : int) ~(pub : Statements.totp_public) ~(n_rps : int)
    ~(client : string * string * string * string) (* k, r, id, kclient *)
    ~(registrations : (string * string) list) ~(rand_client : int -> string)
    ~(rand_log : int -> string) ~(offline : Channel.t) ~(online : Channel.t) : outcome =
  Larch_obs.Trace.with_span "totp.2pc.run" @@ fun () ->
  Larch_obs.Trace.add_int "n_rps" n_rps;
  let k, r, id, kclient = client in
  let circuit, garbler_inputs, evaluator_inputs =
    Larch_obs.Trace.with_span "totp.circuit" @@ fun () ->
    ( Statements.totp_circuit ~n_rps pub,
      Statements.totp_client_input ~k ~r ~id ~kclient,
      Statements.totp_log_input ~registrations )
  in
  let cfg =
    Yao.
      {
        circuit;
        n_garbler_inputs = Array.length garbler_inputs;
        n_evaluator_outputs = evaluator_output_bits;
      }
  in
  let res =
    Yao.run ~domains cfg ~garbler_inputs ~evaluator_inputs ~rand_garbler:rand_client
      ~rand_evaluator:rand_log ~offline ~online
  in
  let ok = res.Yao.evaluator_outputs.(0) = 1 in
  let ct =
    Larch_util.Bytesx.string_of_bits (Array.sub res.Yao.evaluator_outputs 1 (8 * Statements.totp_id_len))
  in
  let hmac = Larch_util.Bytesx.string_of_bits res.Yao.garbler_outputs in
  { code = Larch_auth.Totp.truncate hmac; hmac; ok; ct; timings = res.Yao.timings }

let run_auth = run_auth_on ~domains:1

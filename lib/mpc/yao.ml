(* Two-party garbled-circuit execution over metered channels.

   Drives one full Yao execution between a garbler (the larch client) and
   an evaluator (the log service), splitting traffic into the offline
   (input-independent: base OTs + garbled tables) and online (input-
   dependent: OT extension, input labels, output exchange) phases that
   Figure 3 (right) and Table 6 report separately.

   Both parties run in-process; every byte that would cross the network is
   pushed through the supplied channels so the meters are exact. *)

module Bytesx = Larch_util.Bytesx
module Circuit = Larch_circuit.Circuit
module Channel = Larch_net.Channel
module Trace = Larch_obs.Trace

type config = {
  circuit : Circuit.t;
  n_garbler_inputs : int; (* input wires [0, n) belong to the garbler *)
  n_evaluator_outputs : int; (* output wires [0, n) are revealed to the evaluator *)
}

type timings = {
  offline_seconds : float; (* base OTs + garbling: input-independent *)
  online_seconds : float; (* OT extension, labels, evaluation, outputs *)
  evaluator_seconds : float; (* the log's share of the CPU time *)
}

type outcome = {
  garbler_outputs : int array; (* bits of outputs [n_evaluator_outputs, ...) *)
  evaluator_outputs : int array; (* bits of outputs [0, n_evaluator_outputs) *)
  timings : timings;
}

exception Cheating of string

(* The garbler's decode of the output labels the evaluator returns, which
   are outputs [first, first + n) of the circuit. *)
let garbler_outputs (g : Garble.garbling) ~(first : int) (returned : string array) : int array =
  Array.mapi
    (fun i l ->
      match Garble.garbler_decode g (first + i) l with
      | Some v -> v
      | None -> raise (Cheating "invalid output label returned"))
    returned

let run ?(domains = 1) (cfg : config) ~(garbler_inputs : bool array)
    ~(evaluator_inputs : bool array) ~(rand_garbler : int -> string)
    ~(rand_evaluator : int -> string) ~(offline : Channel.t) ~(online : Channel.t) : outcome =
  let c = cfg.circuit in
  let n_g = cfg.n_garbler_inputs in
  let n_e = c.Circuit.n_inputs - n_g in
  if Array.length garbler_inputs <> n_g then invalid_arg "Yao.run: garbler input count";
  if Array.length evaluator_inputs <> n_e then invalid_arg "Yao.run: evaluator input count";
  let clock = Unix.gettimeofday in
  let eval_cpu = ref 0. in
  let timed_eval f =
    let t0 = clock () in
    let r = f () in
    eval_cpu := !eval_cpu +. (clock () -. t0);
    r
  in
  let t_start = clock () in
  (* --- offline phase --- *)
  let r_base, s_base, g =
    Trace.with_span "yao.offline" @@ fun () ->
    Trace.add_int "n_and" c.Circuit.n_and;
    (* base OTs for the extension (evaluator = extension receiver).  Every
       draw is made here, before garbling draws from the garbler's DRBG, so
       each stream is consumed in the sequential order; the arithmetic then
       overlaps garbling when the client has a second domain. *)
    let draws =
      Trace.with_span "yao.base_ots" (fun () ->
          Ot_ext.draw_base_ots ~rand_bytes_r:rand_evaluator ~rand_bytes_s:rand_garbler)
    in
    let t_draws = clock () in
    let (r_base, s_base, base_bytes, base_seconds), g =
      Larch_util.Parallel.both ~domains
        (fun () ->
          Trace.with_span "yao.base_ots" (fun () ->
              let t0 = clock () in
              let r_base, s_base, bytes = Ot_ext.base_ots draws in
              (r_base, s_base, bytes, clock () -. t0)))
        (fun () -> Trace.with_span "yao.garble" (fun () -> Garble.garble c ~rand_bytes:rand_garbler))
    in
    (* the evaluator's half of the base-OT work *)
    eval_cpu := !eval_cpu +. ((t_draws -. t_start +. base_seconds) /. 2.);
    ignore (Channel.send offline Channel.Client_to_log (String.make (base_bytes / 2) '\000'));
    ignore (Channel.send offline Channel.Log_to_client (String.make (base_bytes - (base_bytes / 2)) '\000'));
    (* ship the tables *)
    ignore (Channel.send offline Channel.Client_to_log (String.make (Garble.tables_bytes g) '\000'));
    (r_base, s_base, g)
  in
  let t_online = clock () in
  (* --- online phase --- *)
  Trace.with_span "yao.online" @@ fun () ->
  (* OT extension for the evaluator's input labels *)
  let evaluator_labels =
    Trace.with_span "yao.ot_ext" @@ fun () ->
    let choices = Array.map (fun b -> if b then 1 else 0) evaluator_inputs in
    let r_ext, u = timed_eval (fun () -> Ot_ext.receiver_extend r_base ~choices) in
    ignore (Channel.send online Channel.Log_to_client (String.make (Ot_ext.u_matrix_bytes u) '\000'));
    let s_ext = Ot_ext.sender_extend s_base ~u ~m:n_e in
    let label_pairs =
      Array.init n_e (fun i ->
          (Garble.active_input g (n_g + i) 0, Garble.active_input g (n_g + i) 1))
    in
    let cipher = Ot_ext.sender_encrypt s_ext ~pairs:label_pairs in
    ignore
      (Channel.send online Channel.Client_to_log
         (String.make (Array.fold_left (fun a (x, y) -> a + String.length x + String.length y) 0 cipher) '\000'));
    timed_eval (fun () -> Ot_ext.receiver_recover r_ext ~choices ~cipher)
  in
  Trace.with_span "yao.evaluate" @@ fun () ->
  (* garbler's own active input labels *)
  let garbler_labels =
    Array.init n_g (fun i -> Garble.active_input g i (if garbler_inputs.(i) then 1 else 0))
  in
  ignore
    (Channel.send online Channel.Client_to_log (String.make (n_g * Garble.label_len) '\000'));
  (* evaluator walks the circuit *)
  let active_inputs = Array.append garbler_labels evaluator_labels in
  let active_out =
    timed_eval (fun () ->
        Garble.evaluate c ~tables:g.Garble.tables ~const_labels:g.Garble.const_labels
          ~active_inputs)
  in
  let n_out = Circuit.n_outputs c in
  let n_eo = cfg.n_evaluator_outputs in
  (* evaluator decodes its own outputs from the decode bits (shipped with
     the tables), and returns the garbler's output labels *)
  let decoded = Garble.decode_outputs g active_out in
  let evaluator_outputs = Array.sub decoded 0 n_eo in
  let returned = Array.sub active_out n_eo (n_out - n_eo) in
  ignore
    (Channel.send online Channel.Log_to_client
       (String.make ((n_out - n_eo) * Garble.label_len) '\000'));
  let garbler_outputs = garbler_outputs g ~first:n_eo returned in
  let t_end = clock () in
  {
    garbler_outputs;
    evaluator_outputs;
    timings =
      {
        offline_seconds = t_online -. t_start;
        online_seconds = t_end -. t_online;
        evaluator_seconds = !eval_cpu;
      };
  }

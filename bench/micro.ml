(* Bechamel microbenchmarks for the substrate primitives whose costs
   dominate the macro experiments.

   [run ?quota ?json ()] optionally dumps every estimate to [json] as a flat
   {name: ns_per_op} object so perf trajectories (BENCH_*.json) can be
   regenerated mechanically instead of transcribed by hand.

   [run_zkboo ?quota ?json ()] benchmarks the ZKBoo prover end to end and
   per phase (shares / commit / challenge / respond) on the one-compression
   SHA-256 statement, and emits the BENCH_pr7.json before/after schema
   directly when [json] is given. *)

open Bechamel
open Toolkit

let rand = Larch_hash.Drbg.of_seed "micro"

let tests () =
  let msg64 = rand 64 in
  let fe_a = Larch_ec.P256.Fe.random ~rand_bytes:rand in
  let fe_b = Larch_ec.P256.Fe.random ~rand_bytes:rand in
  let scalar = Larch_ec.P256.Scalar.random_nonzero ~rand_bytes:rand in
  let scalar2 = Larch_ec.P256.Scalar.random_nonzero ~rand_bytes:rand in
  let p = Larch_ec.Point.mul_base scalar in
  let q = Larch_ec.Point.double p in
  let sk, pk = Larch_ec.Ecdsa.keygen ~rand_bytes:rand in
  let sg = Larch_ec.Ecdsa.sign ~sk "m" in
  let key = rand 32 and nonce = rand 12 in
  let aes_ks = Larch_cipher.Aes.expand_key (rand 16) in
  let block16 = rand 16 in
  let msm n =
    Array.init n (fun _ ->
        ( Larch_ec.P256.Scalar.random ~rand_bytes:rand,
          Larch_ec.Point.mul_base (Larch_ec.P256.Scalar.random_nonzero ~rand_bytes:rand) ))
  in
  let msm8 = msm 8 and msm128 = msm 128 in
  (* one GK15 proof over 8 commitments, as in a password login at 8
     relying parties: the prover's key carries log_g h, the verifier's not *)
  let log_h = Larch_ec.P256.Scalar.random_nonzero ~rand_bytes:rand in
  let h = Larch_ec.Point.mul_base log_h in
  let opening = Larch_ec.P256.Scalar.random_nonzero ~rand_bytes:rand in
  let commitments =
    Larch_ec.Point.normalize_batch
      (Array.init 8 (fun i -> if i = 5 then Larch_ec.Point.mul opening h else snd msm8.(i)))
  in
  let gk_prove () =
    Larch_sigma.Gk15.prove ~key:(Larch_sigma.Pedersen.make_trapdoor ~h ~log_h) ~commitments
      ~index:5 ~opening ~tag:"micro" ~rand_bytes:rand
  in
  let gk_proof = gk_prove () in
  let gk_key = Larch_sigma.Pedersen.make ~h in
  [
    Test.make ~name:"sha256/64B" (Staged.stage (fun () -> Larch_hash.Sha256.digest msg64));
    Test.make ~name:"hmac-sha256/64B" (Staged.stage (fun () -> Larch_hash.Hmac.sha256 ~key msg64));
    Test.make ~name:"chacha20/block" (Staged.stage (fun () -> Larch_cipher.Chacha20.block ~key ~nonce ~counter:0));
    Test.make ~name:"aes128/block" (Staged.stage (fun () -> Larch_cipher.Aes.encrypt_block aes_ks block16));
    Test.make ~name:"p256/fe-mul" (Staged.stage (fun () -> Larch_ec.P256.Fe.mul fe_a fe_b));
    Test.make ~name:"p256/fe-sqr" (Staged.stage (fun () -> Larch_ec.P256.Fe.sqr fe_a));
    Test.make ~name:"p256/point-add" (Staged.stage (fun () -> Larch_ec.Point.add p q));
    Test.make ~name:"p256/point-mul" (Staged.stage (fun () -> Larch_ec.Point.mul scalar2 p));
    Test.make ~name:"p256/mul-base" (Staged.stage (fun () -> Larch_ec.Point.mul_base scalar));
    Test.make ~name:"p256/multi-mul-8" (Staged.stage (fun () -> Larch_ec.Point.multi_mul msm8));
    Test.make ~name:"p256/multi-mul-128" (Staged.stage (fun () -> Larch_ec.Point.multi_mul msm128));
    Test.make ~name:"gk15/prove-8" (Staged.stage gk_prove);
    Test.make ~name:"gk15/verify-8"
      (Staged.stage (fun () ->
           Larch_sigma.Gk15.verify ~key:gk_key ~commitments ~tag:"micro" gk_proof));
    Test.make ~name:"ecdsa/sign" (Staged.stage (fun () -> Larch_ec.Ecdsa.sign ~sk:scalar "m"));
    Test.make ~name:"ecdsa/verify" (Staged.stage (fun () -> Larch_ec.Ecdsa.verify ~pk "m" sg));
  ]

(* --- the Merkle transparency layer ---

   Tree maintenance and proof verification at two history depths, plus
   the client-side audit cost: the fast path (consistency + inclusion for
   one new record, logarithmic) and the full-download fallback (rebuilding
   the tree over the whole history, linear — the merkle/append rows).
   All rows use real [Record] encodings so the leaf sizes match
   production. *)

module Merkle = Larch_merkle.Merkle

let mk_record i : Larch_core.Record.t =
  {
    Larch_core.Record.time = 1_700_000_000. +. float_of_int i;
    ip = "192.0.2.7";
    method_ = Larch_core.Types.Password;
    payload =
      Larch_core.Record.Symmetric
        { nonce = rand 12; ct = rand 32; signature = rand 64 };
  }

let merkle_tests () =
  let leaves n = List.init n (fun i -> Larch_core.Record.encode (mk_record i)) in
  let l1e3 = leaves 1_000 and l1e5 = leaves 100_000 in
  let t1e3 = Merkle.Tree.of_leaves l1e3 and t1e5 = Merkle.Tree.of_leaves l1e5 in
  let incl tree n =
    let root = Merkle.Tree.root tree in
    let index = n / 2 in
    let leaf = List.nth (if n = 1_000 then l1e3 else l1e5) index in
    let proof = Merkle.Tree.inclusion tree ~index in
    fun () -> Merkle.verify_inclusion ~root ~size:n ~index ~leaf ~proof
  in
  let cons tree n =
    let old_size = (n / 2) + 1 in
    let old_root = Merkle.Tree.root_at tree old_size in
    let proof = Merkle.Tree.consistency tree ~old_size ~new_size:n in
    fun () ->
      Merkle.verify_consistency ~old_root ~old_size ~new_root:(Merkle.Tree.root tree) ~new_size:n
        ~proof
  in
  (* the audit delta: n records verified yesterday, one new record today *)
  let audit_delta tree n =
    let old_size = n - 1 in
    let old_root = Merkle.Tree.root_at tree old_size in
    let root = Merkle.Tree.root tree in
    let leaf = List.nth (if n = 1_000 then l1e3 else l1e5) old_size in
    let cproof = Merkle.Tree.consistency tree ~old_size ~new_size:n in
    let iproof = Merkle.Tree.inclusion tree ~index:old_size in
    fun () ->
      Merkle.verify_consistency ~old_root ~old_size ~new_root:root ~new_size:n ~proof:cproof
      && Merkle.verify_inclusion ~root ~size:n ~index:old_size ~leaf ~proof:iproof
  in
  [
    Test.make ~name:"merkle/append-1e3"
      (Staged.stage (fun () -> Merkle.Tree.of_leaves l1e3));
    Test.make ~name:"merkle/append-1e5"
      (Staged.stage (fun () -> Merkle.Tree.of_leaves l1e5));
    Test.make ~name:"merkle/inclusion-verify-1e3" (Staged.stage (incl t1e3 1_000));
    Test.make ~name:"merkle/inclusion-verify-1e5" (Staged.stage (incl t1e5 100_000));
    Test.make ~name:"merkle/consistency-verify-1e3" (Staged.stage (cons t1e3 1_000));
    Test.make ~name:"merkle/consistency-verify-1e5" (Staged.stage (cons t1e5 100_000));
    (* the audit fast path: consistency old→new plus inclusion of the one
       new record; the full-download fallback costs merkle/append above *)
    Test.make ~name:"audit/merkle-delta-1e3" (Staged.stage (audit_delta t1e3 1_000));
    Test.make ~name:"audit/merkle-delta-1e5" (Staged.stage (audit_delta t1e5 100_000));
  ]

(* --- ZKBoo prove/verify, end to end and split by phase ---

   The statement is one SHA-256 compression (the hot primitive of the
   FIDO2 circuit) at the paper's 137 repetitions, single-domain so the
   rows measure the packed evaluator itself.  Phase rows reuse one fixed
   (prepared, committed, challenges) pipeline state, so e.g.
   zkboo/prove-commit times exactly the evaluate+commit pass. *)

module Zkboo = Larch_zkboo.Zkboo

let zkboo_tests () =
  let b = Larch_circuit.Builder.create () in
  let msg = Larch_circuit.Builder.inputs b 256 in
  let out = Larch_circuit.Sha256_circuit.hash_fixed b ~msg in
  let circuit = Larch_circuit.Builder.finalize b ~outputs:out in
  let rand = Larch_hash.Drbg.of_seed "micro-zkboo" in
  let witness = Array.init 256 (fun _ -> Char.code (rand 1).[0] land 1 = 1) in
  let public_output = Larch_circuit.Circuit.eval circuit witness in
  let reps = Zkboo.default_reps in
  let tag = "micro" in
  let prand = Larch_hash.Drbg.of_seed "micro-zkboo-prove" in
  let prep = Zkboo.Phases.shares ~reps ~circuit ~witness ~rand_bytes:prand in
  let comm = Zkboo.Phases.commit ~circuit prep in
  let challenges = Zkboo.Phases.challenge ~circuit ~statement_tag:tag prep comm in
  let proof = Zkboo.Phases.respond prep comm challenges in
  [
    Test.make ~name:"zkboo/prove"
      (Staged.stage (fun () ->
           Zkboo.prove ~reps ~circuit ~witness ~statement_tag:tag ~rand_bytes:prand ()));
    Test.make ~name:"zkboo/prove-shares"
      (Staged.stage (fun () -> Zkboo.Phases.shares ~reps ~circuit ~witness ~rand_bytes:prand));
    Test.make ~name:"zkboo/prove-commit"
      (Staged.stage (fun () -> Zkboo.Phases.commit ~circuit prep));
    Test.make ~name:"zkboo/prove-challenge"
      (Staged.stage (fun () -> Zkboo.Phases.challenge ~circuit ~statement_tag:tag prep comm));
    Test.make ~name:"zkboo/prove-respond"
      (Staged.stage (fun () -> Zkboo.Phases.respond prep comm challenges));
    Test.make ~name:"zkboo/verify"
      (Staged.stage (fun () -> Zkboo.verify ~circuit ~public_output ~statement_tag:tag proof));
  ]

(* {"estimates": {name: ns_per_op}, "metrics": <registry snapshot>} — the
   counters ride along so BENCH_*.json files capture what the run actually
   did (ops, bytes, span histograms), not just how fast. *)
let dump_json ~file rows =
  let oc = open_out file in
  output_string oc "{\n  \"estimates\": {\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    %S: %.1f%s\n" name ns (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  },\n  \"metrics\": ";
  output_string oc (Larch_obs.Export.json Larch_obs.Metrics.default);
  output_string oc "\n}\n";
  close_out oc

let estimate ~quota tests =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  let strip name =
    (* drop the bechamel group prefix: "micro sha256/64B" -> "sha256/64B" *)
    match String.index_opt name ' ' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  List.filter_map
    (fun (name, v) ->
      match Analyze.OLS.estimates v with Some [ est ] -> Some (strip name, est) | _ -> None)
    (List.sort compare rows)

let run ?(quota = 0.5) ?json () =
  Printf.printf "\n=== microbenchmarks (bechamel, ns/op) ===\n%!";
  let estimates = estimate ~quota (tests () @ merkle_tests ()) in
  List.iter (fun (name, est) -> Printf.printf "%-28s %12.1f ns/op\n" name est) estimates;
  match json with
  | None -> ()
  | Some file ->
      dump_json ~file estimates;
      Printf.printf "micro estimates written to %s\n" file

(* Pre-PR7 single-core baselines for the ZKBoo rows, measured at commit
   6532da6 (per-phase numbers from the prover's trace spans, since the
   phases only became separately callable in PR7; respond was below the
   span timer's resolution). *)
let zkboo_baseline_ns =
  [
    ("zkboo/prove", 207305765.0);
    ("zkboo/prove-shares", 7670000.0);
    ("zkboo/prove-commit", 192030000.0);
    ("zkboo/prove-challenge", 2340000.0);
    ("zkboo/prove-respond", 5000.0);
    ("zkboo/verify", 110949183.0);
  ]

let dump_pr7_json ~file rows =
  let oc = open_out file in
  output_string oc "{\n";
  output_string oc
    "  \"pr\": \"ZKBoo raw-speed pass: flattened circuit plans, allocation-free tapes, \
     transposed packing, reusable hash contexts, balanced domain batches\",\n";
  Printf.fprintf oc "  \"units\": \"ns/op (bechamel OLS estimate, 2 s quota per benchmark)\",\n";
  Printf.fprintf oc "  \"command\": \"dune exec bench/main.exe -- -e zkboo --json FILE\",\n";
  output_string oc
    "  \"note\": \"statement = one SHA-256 compression (22696 AND gates), 137 reps, 1 domain; \
     baseline = commit 6532da6, per-phase baselines from trace spans; proof bytes are \
     bit-identical before/after (fixed-seed KAT)\",\n";
  output_string oc "  \"benchmarks\": {\n";
  List.iteri
    (fun i (name, after, base) ->
      Printf.fprintf oc
        "    %S: {\n      \"baseline_ns\": %.1f,\n      \"after_ns\": %.1f,\n      \
         \"speedup\": %.2f\n    }%s\n"
        name base after (base /. after)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  }\n}\n";
  close_out oc

let run_zkboo ?(quota = 2.0) ?json () =
  Printf.printf "\n=== zkboo microbenchmarks (bechamel, ns/op, vs pre-PR7 baseline) ===\n%!";
  let estimates = estimate ~quota (zkboo_tests ()) in
  let rows =
    List.map
      (fun (name, after) ->
        match List.assoc_opt name zkboo_baseline_ns with
        | Some base -> (name, after, base)
        | None -> (name, after, after))
      estimates
  in
  List.iter
    (fun (name, after, base) ->
      Printf.printf "%-24s %14.1f ns/op   baseline %14.1f   speedup %5.2fx\n" name after base
        (base /. after))
    rows;
  match json with
  | None -> ()
  | Some file ->
      dump_pr7_json ~file rows;
      Printf.printf "zkboo BENCH rows written to %s\n" file

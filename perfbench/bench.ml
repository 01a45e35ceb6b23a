(* The repository benchmark: one workload through the DUT on both hosts.

     bench.exe --workload ris-ov|rr-fanout|churn-ov --seed N --seconds S
               --trace 0|1 [--perturb expected|drop]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
   --perturb is the self-test of the correctness check.
   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. See README.md. *)

let hosts : Dut.host list = [ `Frr; `Bird ]
let word_bytes = float_of_int (Sys.word_size / 8)

let median_f l =
  match l with [] -> 0. | l -> Replay.median (Array.of_list l)

(* nearest-rank percentile *)
let percentile q a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ms ns = float_of_int ns /. 1e6
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ---- output ---- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics
let host_metric h name = metric (Dut.host_name h ^ "." ^ name)

let print_json (chk : Dut.check) =
  let attempted = chk.ok + chk.bad in
  let body =
    List.rev_map
      (fun (name, value, unit) ->
        if not (Float.is_finite value) then
          failwith (Printf.sprintf "perfbench: metric %s is not finite" name);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (chk.bad = 0 && attempted > 0) attempted chk.bad (String.concat ", " body)

let print_meta (inp : Gen.t) ~trace ~rounds ~reps_per_host =
  let g = Gc.get () in
  let w = inp.w in
  Printf.printf
    "# meta workload=%s seed=%d trace=%d nproc=%d ocaml=%s routes=%d \
     events_per_rep=%d receivers=%d prefixes_per_attr_set=%d updates=%d \
     roas=%d rounds=%d reps_per_host=%d engine=interpreted caches=on \
     batch_updates=on update_groups=on shards=1 telemetry=off \
     %s gc.minor_heap_words=%d gc.space_overhead=%d OCAMLRUNPARAM=%s\n%!"
    w.name inp.seed trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version w.routes w.events w.receivers w.share
    (List.length inp.updates) (List.length inp.roas) rounds reps_per_host
    (Dut.ov_override inp) g.minor_heap_size g.space_overhead
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))

(* ---- repetitions ---- *)

(* Untimed warm-up, one per host; it also gives the heap metric (live
   heap after compaction with the final state held, per route the DUT
   holds). *)
let warm_up chk inp base =
  List.map
    (fun h ->
      let r, _ = Dut.run ~lean:true ~traced:false ~events:false chk inp base h in
      (h, float_of_int r.Dut.heap_words *. word_bytes /. float_of_int (max 1 r.held)))
    hosts

(* Rounds of one repetition per host and mode (untraced, or untraced
   and traced), the order reversing round by round so a slow phase of
   the machine hits every leg alike; at least [min_rounds], then until
   [seconds] have passed. Within a round, the receivers of every leg of
   one mode (FRR and BIRD) must be identical. Every leg is bracketed by
   the reference task, and comes with the machine's slowness factor:
   the mean of the two task times over [Reference.nominal_ns]. *)
let rounds chk inp base ~modes ~events ~min_rounds ~seconds =
  (* closed-loop events never run traced: their latency is end-to-end *)
  let legs = List.concat_map (fun traced -> List.map (fun h -> (h, traced)) hosts) modes in
  let t0 = Dut.now_ns () in
  let out = ref [] in
  let n = ref 0 in
  while
    !n < min_rounds
    || (float_of_int (Dut.now_ns () - t0) /. 1e9 < seconds && !n < 200)
  do
    let order = if !n mod 2 = 0 then legs else List.rev legs in
    let tr = Dut.now_ns () in
    let reps =
      List.map
        (fun (h, traced) ->
          let before = Reference.time () in
          let r = fst (Dut.run ~traced ~events:(events && not traced) chk inp base h) in
          (* the leg's star is garbage now, so it does not slow the task *)
          let after = Reference.time () in
          (r, float_of_int (before + after) /. 2. /. float_of_int Reference.nominal_ns))
        order
    in
    Printf.eprintf "round %d: %.1f ms\n" !n (ms (Dut.now_ns () - tr));
    List.iter
      (fun ((r : Dut.rep), slow) ->
        Printf.eprintf "round %d %s%s setup=%.2fms phase=%.1fms slowness=%.3f%s\n%!" !n
          (Dut.host_name r.host)
          (if r.traced then " traced" else "")
          (ms r.setup_ns) (ms r.phase_ns) slow
          (if Array.length r.lat_ns = 0 then ""
           else
             Printf.sprintf " p50=%.4fms p99=%.4fms" (ms (percentile 0.5 r.lat_ns))
               (ms (percentile 0.99 r.lat_ns))))
      reps;
    List.iter
      (fun traced ->
        match List.filter (fun (r : Dut.rep) -> r.traced = traced) (List.map fst reps) with
        | first :: others ->
          List.iter
            (fun (r : Dut.rep) ->
              Array.iteri
                (fun k d ->
                  if d = first.digests.(k) then chk.ok <- chk.ok + 1
                  else chk.bad <- chk.bad + 1)
                r.digests)
            others
        | [] -> ())
      modes;
    out := reps :: !out;
    incr n
  done;
  List.rev !out

let legs_of_host ?(traced = false) h reps =
  List.filter
    (fun ((r : Dut.rep), _) -> r.host = h && r.traced = traced)
    (List.concat reps)

let of_host ?traced h reps = List.map fst (legs_of_host ?traced h reps)

let end_to_end chk (inp : Gen.t) base ~seconds =
  let heap = warm_up chk inp base in
  let rs =
    rounds chk inp base ~modes:[ false ] ~events:true ~min_rounds:3 ~seconds
  in
  print_meta inp ~trace:0 ~rounds:(List.length rs) ~reps_per_host:(List.length rs);
  (* set-up time: each round's, both hosts, normalised leg by leg like
     the other timings *)
  let setup norm =
    median_f
      (List.map
         (List.fold_left
            (fun s ((r : Dut.rep), slow) ->
              s +. (float_of_int r.setup_ns /. 1e9 /. if norm then slow else 1.))
            0.)
         rs)
  in
  Printf.printf "setup_s=%.5f (as measured %.5f)\n" (setup true) (setup false);
  metric "setup_s" "s" (setup true);
  List.iter
    (fun h ->
      let legs = legs_of_host h rs in
      let reps = List.map fst legs in
      (* measured, and normalised leg by leg to the nominal machine
         speed: a machine [slow] times slower takes [slow] times as long *)
      let rps (r : Dut.rep) = float_of_int inp.w.routes /. (float_of_int r.load_ns /. 1e9) in
      let p q (r : Dut.rep) = ms (percentile q r.lat_ns) in
      let med f = median_f (List.map f reps) in
      let med_norm f = median_f (List.map (fun (r, slow) -> f r slow) legs) in
      let samples = List.fold_left (fun s (r : Dut.rep) -> s + Array.length r.lat_ns) 0 reps in
      Printf.printf
        "%-4s routes_per_s=%.0f update_p50_ms=%.4f update_p99_ms=%.4f \
         (closed loop, %d events/rep, %d samples) heap_bytes_per_route=%.1f \
         slowness=%.3f\n%!"
        (Dut.host_name h) (med rps) (med (p 0.5)) (med (p 0.99))
        (Array.length inp.events) samples (List.assoc h heap)
        (median_f (List.map snd legs));
      host_metric h "routes_per_s_norm" "routes/s" (med_norm (fun r slow -> rps r *. slow));
      host_metric h "update_p50_ms_norm" "ms" (med_norm (fun r slow -> p 0.5 r /. slow));
      host_metric h "heap_bytes_per_route" "B/route" (List.assoc h heap))
    hosts;
  metric "ok_ratio" "ratio" (ratio chk.ok (chk.ok + chk.bad))

(* ---- the traced run ---- *)

let units (inp : Gen.t) = if Gen.table_workload inp.w then inp.w.routes else inp.w.events

let recording chk (inp : Gen.t) base h =
  let r, star = Dut.run ~record:true ~traced:false ~events:false chk inp base h in
  let outputs =
    Array.init inp.w.receivers (fun k ->
        let skip = if Gen.table_workload inp.w then 0 else r.load_frames.(k) in
        Array.of_list
          (List.filteri (fun i _ -> i >= skip) (Scenario.Star.sink_frames star (k + 1))))
  in
  let inputs =
    if Gen.table_workload inp.w then Array.of_list inp.updates
    else Array.map Gen.update_of_event inp.events
  in
  { Replay.inputs; outputs; units = units inp }

let exact_counts h (c : Dut.counts) reps ~held ~u =
  let per n = float_of_int n /. float_of_int u in
  let m = host_metric h in
  m "bgp.nlri_per_update" "nlri/update" (ratio c.routes_in c.updates_rx);
  m "bgp.updates_tx_per_route" "updates/route" (per c.updates_tx);
  m "vmm.runs_per_route" "runs/route" (per c.runs);
  m "vmm.insns_per_route" "insns/route" (per c.insns);
  m "vmm.fallbacks" "count" (float_of_int c.fallbacks);
  m "vmm.faults" "count" (float_of_int c.faults);
  m "rib.update_groups" "count" (float_of_int c.groups);
  m "netsim.tx_bytes_per_route" "B/route" (per c.tx_bytes);
  m "netsim.events_per_route" "events/route" (per c.steps);
  m "ebpf.map_lookups_per_route" "lookups/route" (per c.map_lookups);
  m "ebpf.map_hit_ratio" "ratio" (ratio c.map_hits c.map_lookups);
  m "attrs.cache_hit_ratio" "ratio" (ratio c.cache_hits (c.cache_hits + c.cache_misses));
  m "attrs.intern_entries_per_route" "entries/route" (ratio c.intern held);
  m "gc.minor_words_per_route" "words/route" (per c.minor_words);
  m "gc.major_collections" "count"
    (median_f (List.map (fun (r : Dut.rep) -> float_of_int r.counts.major) reps))

let per_layer chk (inp : Gen.t) base ~seconds =
  ignore (warm_up chk inp base);
  let rs =
    rounds chk inp base ~modes:[ false; true ] ~events:true ~min_rounds:2 ~seconds
  in
  print_meta inp ~trace:1 ~rounds:(List.length rs) ~reps_per_host:(2 * List.length rs);
  let u = units inp in
  let fu = float_of_int u in
  List.iter
    (fun h ->
      let plain = of_host h rs and traced = of_host ~traced:true h rs in
      (* tracing must not change the work done: every exact count of
         every repetition, traced or not, must agree *)
      let c0 = (List.hd plain).counts in
      List.iter
        (fun (r : Dut.rep) ->
          match Dut.count_diff c0 r.counts with
          | [] -> chk.ok <- chk.ok + 1
          | diff ->
            chk.bad <- chk.bad + 1;
            Printf.eprintf "perfbench: %s exact counts differ between repetitions: %s\n"
              (Dut.host_name h) (String.concat ", " diff))
        (plain @ traced);
      let med f l = median_f (List.map f l) in
      let phase (r : Dut.rep) = float_of_int r.phase_ns in
      let dut_us = med (fun (r : Dut.rep) -> float_of_int (fst r.busy_ns) /. 1e3 /. fu) traced in
      let scen_us = med (fun (r : Dut.rep) -> float_of_int (snd r.busy_ns) /. 1e3 /. fu) traced in
      let overhead = ((med phase traced /. med phase plain) -. 1.) *. 100. in
      let m = host_metric h in
      (* the latency tail: GC pauses set it, and on a shared 2-core box
         it drifts too much between runs to gate on *)
      m "update_p99_ms" "ms"
        (med (fun (r : Dut.rep) -> ms (percentile 0.99 r.lat_ns)) plain);
      (* the end-to-end timings as measured, and how slow the machine
         was against the nominal speed they are normalised to *)
      m "routes_per_s" "routes/s"
        (med (fun (r : Dut.rep) -> float_of_int inp.w.routes /. (float_of_int r.load_ns /. 1e9)) plain);
      m "update_p50_ms" "ms" (med (fun (r : Dut.rep) -> ms (percentile 0.5 r.lat_ns)) plain);
      m "machine.slowness" "ratio" (median_f (List.map snd (legs_of_host h rs)));
      m "dut.busy_us_per_route" "us/route" dut_us;
      m "scenario.busy_us_per_route" "us/route" scen_us;
      m "trace.overhead_pct" "%" overhead;
      exact_counts h c0 plain ~held:(List.hd plain).held ~u;
      let rec_ = recording chk inp base h in
      let results =
        match h with
        | `Frr -> Replay.run Replay.frr inp rec_ ~reps:5
        | `Bird -> Replay.run Replay.bird inp rec_ ~reps:5
      in
      let replayed = List.fold_left (fun s (r : Replay.result) -> s +. r.ns) 0. results in
      Printf.printf "%s: DUT busy %.2f us/route, scenario %.2f us/route, trace overhead %+.1f%%\n"
        (Dut.host_name h) dut_us scen_us overhead;
      Printf.printf "  %-16s %12s %12s %8s\n" "layer" "ns/route" "words/route" "share";
      List.iter
        (fun (r : Replay.result) ->
          Printf.printf "  %-16s %12.1f %12.1f %7.1f%%\n" r.layer r.ns r.words
            (100. *. r.ns /. (dut_us *. 1e3));
          m (r.layer ^ "_ns") "ns/route" r.ns;
          m (r.layer ^ "_words") "words/route" r.words)
        results;
      let unattributed = 1. -. (replayed /. (dut_us *. 1e3)) in
      Printf.printf "  %-16s %12s %12s %7.1f%%\n%!" "unattributed" "" "" (100. *. unattributed);
      m "dut.unattributed_share" "ratio" unattributed)
    hosts

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and perturb = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " ris-ov | rr-fanout | churn-ov");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ( "--perturb",
        Arg.Symbol ([ "expected"; "drop" ], ( := ) perturb),
        " self-test: corrupt one expected route, or withhold one route from \
         the feed" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Gen.find !workload with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some w ->
    let inp = Gen.make w !seed in
    let base = Dut.expected_table inp in
    (* the perturbed route: one no event touches, so the fault survives
       to the final check *)
    let victim () =
      let touched = Hashtbl.create 1024 in
      Array.iter (fun (e : Gen.event) -> Hashtbl.replace touched e.ev_prefix ()) inp.events;
      fst (List.find (fun (p, _) -> not (Hashtbl.mem touched p)) (Array.to_list inp.table))
    in
    let inp =
      match !perturb with
      | "expected" ->
        (* the reference is wrong: every receiver's copy mismatches *)
        let p = victim () in
        let e = Hashtbl.find base p in
        Hashtbl.replace base p
          (Bgp.Attr.sort_canonical (Bgp.Attr.v (Bgp.Attr.Med 4242) :: e));
        inp
      | "drop" ->
        (* the DUT loses a route: the feed omits it, the reference keeps
           it, so the table never arrives in full *)
        let p = victim () in
        let updates =
          List.filter_map
            (fun (u : Bgp.Message.update) ->
              match List.filter (fun q -> not (Bgp.Prefix.equal q p)) u.nlri with
              | [] -> None
              | nlri -> Some { u with nlri })
            inp.updates
        in
        { inp with updates }
      | _ -> inp
    in
    let chk = { Dut.ok = 0; bad = 0 } in
    (match !trace with
    | 0 -> end_to_end chk inp base ~seconds:!seconds
    | 1 -> per_layer chk inp base ~seconds:!seconds
    | _ ->
      prerr_endline "perfbench: --trace is 0 or 1";
      exit 2);
    print_json chk

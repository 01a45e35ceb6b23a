(* One repetition against the device under test: a fresh Scenario.Star
   (scripted Session.Fsm spokes on in-memory pipes around the DUT), the
   table transfer and the closed-loop events, the untimed correctness
   checks, and the exact counters read from the program's public
   accessors. *)

module Star = Scenario.Star

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* Monotonic nanoseconds. Allocation-free, so a traced pass allocates
   exactly what an untraced one does. *)
let now_ns () = Int64.to_int (clock_ns ())

type host = [ `Frr | `Bird ]

let host_name : host -> string = function `Frr -> "frr" | `Bird -> "bird"

(* Scheduler-step accounting. A traced pass times every step and charges
   it to the scripted peers when a spoke's route counters moved during
   it, else to the DUT. *)
type acc = {
  traced : bool;
  mutable steps : int;
  mutable dut_ns : int;
  mutable scen_ns : int;
}

let activity star i = Star.sink_adv_seen star i + Star.sink_wd_seen star i

(* The predicates below are top-level recursions, not local closures,
   so polling them between steps allocates nothing. *)
let rec activity_from star i sum =
  if i = Star.npeers star then sum
  else activity_from star (i + 1) (sum + activity star i)

let rec all_full star n r recv =
  r > recv || (Star.sink_adv_seen star r >= n && all_full star n (r + 1) recv)

let rec all_moved star adv0 wd0 r recv =
  r > recv
  || activity star r > adv0.(r) + wd0.(r)
     && all_moved star adv0 wd0 (r + 1) recv

(* Step the scheduler until [pred] holds. False when it never does: an
   hour of simulated time passed first (keepalives keep the queue from
   draining) or the queue drained. The caller counts what is missing. *)
let drive acc star pred =
  let sched = Star.sched star in
  let deadline = Netsim.Sched.now sched + 3_600_000_000 in
  let live = ref true in
  while !live && not (pred ()) do
    if Netsim.Sched.now sched > deadline then live := false
    else begin
      acc.steps <- acc.steps + 1;
      if acc.traced then begin
        let before = activity_from star 0 0 in
        let t0 = now_ns () in
        live := Netsim.Sched.step sched;
        let dt = now_ns () - t0 in
        if activity_from star 0 0 <> before then acc.scen_ns <- acc.scen_ns + dt
        else acc.dut_ns <- acc.dut_ns + dt
      end
      else live := Netsim.Sched.step sched
    end
  done;
  !live

(* The feeder encoding and sending outside the scheduler is scripted-peer
   work too. *)
let feed acc f =
  let t0 = now_ns () in
  f ();
  if acc.traced then acc.scen_ns <- acc.scen_ns + (now_ns () - t0)

(* The origin-validation extension as shipped cannot hold a RIS-sized
   ROA file: its ROA map declares the default 1024 entries, so later
   map updates fail silently, and its init copies the whole file into
   the VMM's 64 KiB extension heap, which faults beyond ~5.4k ROAs.
   The DUT gets the same bytecode with the map declared at the largest
   size the map layer admits (65,536 entries) and a heap sized to the
   file, in 64 KiB steps. *)
let ov_program =
  let p = Xprogs.Origin_validation.program in
  {
    p with
    Xbgp.Xprog.maps =
      List.map
        (fun (m : Xbgp.Xprog.map_spec) -> { m with max_entries = 65536 })
        p.maps;
  }

let heap_size (inp : Gen.t) = (Bytes.length inp.roa_blob / 65536 + 2) * 65536

(* The override, as the meta line records it. *)
let ov_override (inp : Gen.t) =
  if not (Gen.ov inp.w) then "ov_override=none"
  else
    let entries (p : Xbgp.Xprog.t) =
      String.concat "/"
        (List.map (fun (m : Xbgp.Xprog.map_spec) -> string_of_int m.max_entries) p.maps)
    in
    (* 65536: the heap Xbgp.Vmm.create gives an attachment by default *)
    Printf.sprintf "ov_map_entries=%s(shipped:%s) ov_heap_bytes=%d(shipped:65536)"
      (entries ov_program) (entries Xprogs.Origin_validation.program) (heap_size inp)

let ov_vmm (inp : Gen.t) ?telemetry ~host () =
  let vmm =
    Xbgp.Vmm.create ~heap_size:(heap_size inp) ~engine:Ebpf.Vm.Interpreted
      ?telemetry ~host ()
  in
  let registry name =
    if name = ov_program.name then Some ov_program else Xprogs.Registry.find name
  in
  match Xbgp.Manifest.load vmm ~registry Xprogs.Origin_validation.manifest with
  | Ok () -> vmm
  | Error e -> failwith ("perfbench: " ^ e)

(* The DUT runs with the daemons' defaults: Interpreted engine,
   conversion caches, batch_updates and update groups on, one shard,
   telemetry disabled. *)
let make_star (inp : Gen.t) host ~record ~lean =
  let w = inp.w in
  let npeers = 1 + w.receivers in
  let track_rib = not lean in
  let star =
    if Gen.ov w then begin
      let telemetry = Telemetry.create ~enabled:false () in
      let vmm = ov_vmm inp ~telemetry ~host:"dut" () in
      Star.create ~host ~vmm ~telemetry
        ~xtras:[ ("roa_table", inp.roa_blob) ]
        ~record_frames:record ~track_rib ~npeers ()
    end
    else
      Star.create ~host ~manifest:Xprogs.Route_reflector.manifest ~ibgp:true
        ~rr_client:(fun _ -> true)
        ~record_frames:record ~track_rib ~npeers ()
  in
  assert (Star.sink_address star 0 = Gen.feeder_addr);
  Star.establish star;
  star

(* ---- exact counts ---- *)

type counts = {
  updates_rx : int;
  routes_in : int;
  updates_tx : int;
  runs : int;
  insns : int;
  fallbacks : int;
  faults : int;
  map_lookups : int;
  map_hits : int;
  cache_hits : int;
  cache_misses : int;
  intern : int;  (** FRR intern-table entries at the end *)
  groups : int;  (** active update groups at the end *)
  tx_bytes : int;  (** bytes the DUT wrote into its pipes *)
  minor_words : int;
  major : int;  (** not exact, see [count_diff] *)
  steps : int;
}

let map_totals vmm =
  List.fold_left
    (fun acc program ->
      let rec go idx (l, h) =
        match Xbgp.Vmm.map_stats vmm ~program idx with
        | Some (s : Ebpf.Map.stats) -> go (idx + 1) (l + s.lookups, h + s.hits)
        | None -> (l, h)
      in
      go 0 acc)
    (0, 0) (Xbgp.Vmm.registered vmm)

let program_counts star host =
  let s = Scenario.Daemon.stats (Star.dut star) in
  let runs, insns, fallbacks, faults, (map_lookups, map_hits) =
    match Star.dut_vmm star with
    | Some v ->
      let vs = Xbgp.Vmm.stats v in
      (vs.runs, vs.insns, vs.native_fallbacks, vs.faults, map_totals v)
    | None -> (0, 0, 0, 0, (0, 0))
  in
  let cache_hits, cache_misses =
    match host with
    | `Frr -> Frrouting.Attr_intern.conversion_cache_stats ()
    | `Bird -> Bird.Eattr.conversion_cache_stats ()
  in
  let tx_bytes =
    List.fold_left
      (fun sum (name, labels, v) ->
        if name = "net_tx_bytes_total" && List.assoc_opt "end" labels = Some "a"
        then sum + v
        else sum)
      0
      (Telemetry.counters (Star.telemetry star))
  in
  {
    updates_rx = s.updates_rx;
    routes_in = s.routes_in;
    updates_tx = s.updates_tx;
    runs;
    insns;
    fallbacks;
    faults;
    map_lookups;
    map_hits;
    cache_hits;
    cache_misses;
    intern =
      (match host with
      | `Frr -> Frrouting.Attr_intern.intern_table_size ()
      | `Bird -> 0);
    groups = Scenario.Daemon.group_count (Star.dut star);
    tx_bytes;
    minor_words = 0;
    major = 0;
    steps = 0;
  }

let count_fields c =
  [
    ("updates_rx", c.updates_rx); ("routes_in", c.routes_in);
    ("updates_tx", c.updates_tx); ("runs", c.runs); ("insns", c.insns);
    ("fallbacks", c.fallbacks); ("faults", c.faults);
    ("map_lookups", c.map_lookups); ("map_hits", c.map_hits);
    ("cache_hits", c.cache_hits); ("cache_misses", c.cache_misses);
    ("intern", c.intern); ("groups", c.groups); ("tx_bytes", c.tx_bytes);
    ("minor_words", c.minor_words); ("steps", c.steps);
  ]

(* The fields on which two count sets disagree, rendered. Major
   collections are left out: whether a major cycle ends inside the phase
   depends on the heap the earlier repetitions left behind (OCaml 5.1
   does not compact it), so they vary by one between repetitions. *)
let count_diff a b =
  List.filter_map
    (fun ((name, x), (_, y)) ->
      if x = y then None else Some (Printf.sprintf "%s %d vs %d" name x y))
    (List.combine (count_fields a) (count_fields b))

(* Run [f] as the measured phase: the counter deltas across it, and its
   wall time (counter reads excluded). *)
let measure (acc : acc) star host f =
  let c0 = program_counts star host in
  let s0 = acc.steps and dut0 = acc.dut_ns and scen0 = acc.scen_ns in
  let major0 = (Gc.quick_stat ()).major_collections in
  let mw0 = Gc.minor_words () in
  let t0 = now_ns () in
  f ();
  let ns = now_ns () - t0 in
  let mw1 = Gc.minor_words () in
  let major1 = (Gc.quick_stat ()).major_collections in
  let c1 = program_counts star host in
  ( ns,
    (acc.dut_ns - dut0, acc.scen_ns - scen0),
    {
      updates_rx = c1.updates_rx - c0.updates_rx;
      routes_in = c1.routes_in - c0.routes_in;
      updates_tx = c1.updates_tx - c0.updates_tx;
      runs = c1.runs - c0.runs;
      insns = c1.insns - c0.insns;
      fallbacks = c1.fallbacks - c0.fallbacks;
      faults = c1.faults - c0.faults;
      map_lookups = c1.map_lookups - c0.map_lookups;
      map_hits = c1.map_hits - c0.map_hits;
      cache_hits = c1.cache_hits - c0.cache_hits;
      cache_misses = c1.cache_misses - c0.cache_misses;
      intern = c1.intern;
      groups = c1.groups;
      tx_bytes = c1.tx_bytes - c0.tx_bytes;
      minor_words = int_of_float (mw1 -. mw0);
      major = major1 - major0;
      steps = acc.steps - s0;
    } )

(* ---- correctness ---- *)

type check = { mutable ok : int; mutable bad : int }

let expected_table (inp : Gen.t) =
  let h = Hashtbl.create (Array.length inp.table) in
  Array.iter (fun (p, attrs) -> Hashtbl.replace h p (Gen.expected inp p attrs)) inp.table;
  h

let apply_event (inp : Gen.t) expected (e : Gen.event) =
  match e.ev_attrs with
  | Some attrs -> Hashtbl.replace expected e.ev_prefix (Gen.expected inp e.ev_prefix attrs)
  | None -> Hashtbl.remove expected e.ev_prefix

(* Every receiver must hold exactly the expected routes: one outcome per
   expected prefix and receiver, plus one failure per unexpected route.
   Returns each receiver's digest for the cross-host comparison. *)
let verify chk star (inp : Gen.t) expected =
  Array.init inp.w.receivers (fun k ->
      let rib = Star.sink_rib star (k + 1) in
      let seen = ref 0 in
      let buf = Buffer.create 65536 in
      List.iter
        (fun (p, attrs) ->
          let attrs = Bgp.Attr.sort_canonical attrs in
          Buffer.add_string buf (Bgp.Prefix.to_string p);
          List.iter (fun a -> Buffer.add_bytes buf (Bgp.Attr.to_tlv a)) attrs;
          match Hashtbl.find_opt expected p with
          | Some e ->
            incr seen;
            if List.equal Bgp.Attr.equal e attrs then chk.ok <- chk.ok + 1
            else chk.bad <- chk.bad + 1
          | None -> chk.bad <- chk.bad + 1)
        rib;
      chk.bad <- chk.bad + (Hashtbl.length expected - !seen);
      Digest.string (Buffer.contents buf))

(* ---- one repetition ---- *)

type rep = {
  host : host;
  traced : bool;
  setup_ns : int;  (** star, sessions, extensions (and, on churn-ov, the table) *)
  load_ns : int;  (** first announcement -> every receiver holds the table *)
  phase_ns : int;  (** the measured phase: the transfer, or the churn *)
  busy_ns : int * int;  (** traced DUT and scenario time in the phase *)
  load_frames : int array;  (** frames per receiver after the transfer *)
  lat_ns : int array;  (** per closed-loop event *)
  counts : counts;  (** over the measured phase *)
  digests : string array;  (** per receiver, of the final state *)
  heap_words : int;  (** live words added by the star ([lean] only) *)
  held : int;  (** routes the DUT holds at the end *)
}

(* Closed loop, one event in flight: inject, then run until every
   receiver's route counters move. The effect must be of the right kind
   (an announcement for announcements, a withdrawal for withdrawals);
   wrong kinds are tallied in [wrong] without allocating, so the
   measured phase counts only DUT and scenario work. An event that
   reaches no receiver ends the phase: every receiver's outcome of it
   and of the events after it counts as wrong. Returns the number of
   events injected. *)
let run_events acc star (inp : Gen.t) lat wrong =
  let recv = inp.w.receivers in
  let adv0 = Array.make (recv + 1) 0 and wd0 = Array.make (recv + 1) 0 in
  let moved () = all_moved star adv0 wd0 1 recv in
  let n = Array.length inp.events in
  let k = ref 0 and stopped = ref false in
  while !k < n && not !stopped do
    let e = inp.events.(!k) in
    for r = 1 to recv do
      adv0.(r) <- Star.sink_adv_seen star r;
      wd0.(r) <- Star.sink_wd_seen star r
    done;
    let t0 = now_ns () in
    feed acc (fun () ->
        match e.ev_attrs with
        | Some attrs -> Star.sink_announce star 0 ~attrs [ e.ev_prefix ]
        | None -> Star.sink_withdraw star 0 [ e.ev_prefix ]);
    let done_ = drive acc star moved in
    lat.(!k) <- now_ns () - t0;
    for r = 1 to recv do
      let ok =
        match e.ev_attrs with
        | Some _ -> Star.sink_adv_seen star r > adv0.(r)
        | None -> Star.sink_wd_seen star r > wd0.(r)
      in
      if not ok then incr wrong
    done;
    incr k;
    if not done_ then begin
      wrong := !wrong + ((n - !k) * recv);
      stopped := true
    end
  done;
  !k

let reset_caches () =
  Frrouting.Attr_intern.reset_intern_table ();
  Frrouting.Attr_intern.reset_conversion_cache_stats ();
  Bird.Eattr.reset_conversion_cache_stats ()

(* [events]: run the closed-loop stream (always on churn-ov, where it is
   the measured phase; the latency probes after the transfer on the
   table workloads). [lean]: no receiver RIBs and no checks, for the
   heap measurement. [record]: spokes keep raw frames for the replays.
   The star is returned so a caller can read recorded frames. *)
let run ?(record = false) ?(lean = false) ~traced ~events chk (inp : Gen.t)
    base_expected (host : host) =
  let w = inp.w in
  let churn = not (Gen.table_workload w) in
  let lat = Array.make (if events || churn then Array.length inp.events else 0) 0 in
  let expected = Hashtbl.copy base_expected in
  let wrong = ref 0 in
  reset_caches ();
  Gc.compact ();
  let heap0 = if lean then (Gc.stat ()).live_words else 0 in
  let acc = { traced; steps = 0; dut_ns = 0; scen_ns = 0 } in
  let t0 = now_ns () in
  let star = make_star inp host ~record ~lean in
  let full () = all_full star w.routes 1 w.receivers in
  (* a table that never arrives in full ends the load; [verify] counts
     each missing prefix at each receiver *)
  let loaded = ref true and injected = ref 0 in
  let load () =
    feed acc (fun () ->
        List.iter
          (fun (u : Bgp.Message.update) ->
            Star.sink_announce star 0 ~attrs:u.attrs u.nlri)
          inp.updates);
    loaded := drive acc star full
  in
  let frames_now () =
    if record then Array.init w.receivers (fun k -> Star.sink_frame_count star (k + 1))
    else [||]
  in
  let setup_ns, load_ns, (phase_ns, busy_ns, counts), load_frames =
    if churn then begin
      let load_ns, _, _ = measure acc star host load in
      let load_frames = frames_now () in
      let setup_ns = now_ns () - t0 in
      Gc.compact ();
      let phase =
        measure acc star host (fun () -> injected := run_events acc star inp lat wrong)
      in
      (setup_ns, load_ns, phase, load_frames)
    end
    else begin
      let setup_ns = now_ns () - t0 in
      let ((load_ns, _, _) as phase) = measure acc star host load in
      (setup_ns, load_ns, phase, frames_now ())
    end
  in
  (* The latency probes start, like the churn, from a compacted heap:
     the major GC's phase is then the same in every repetition, and the
     p99 (set by GC pauses) stops depending on what the transfer left. *)
  if events && not churn then begin
    Gc.compact ();
    injected := run_events acc star inp lat wrong
  end;
  (* untimed from here on *)
  if not !loaded then
    Printf.eprintf "perfbench: %s: the receivers never held the full table\n%!"
      (host_name host);
  if !injected < Array.length lat then
    Printf.eprintf "perfbench: %s: event %d did not reach every receiver; %d not run\n%!"
      (host_name host) (!injected - 1) (Array.length lat - !injected);
  let held = Scenario.Daemon.loc_count (Star.dut star) in
  let heap_words =
    if lean then begin
      Gc.compact ();
      let live = (Gc.stat ()).live_words in
      ignore (Sys.opaque_identity star);
      live - heap0
    end
    else 0
  in
  let digests =
    if lean then [||]
    else begin
      chk.ok <- chk.ok + (Array.length lat * w.receivers) - !wrong;
      chk.bad <- chk.bad + !wrong;
      Array.iteri
        (fun i e -> if i < !injected then apply_event inp expected e)
        inp.events;
      verify chk star inp expected
    end
  in
  ( {
      host;
      traced;
      setup_ns;
      load_ns;
      phase_ns;
      busy_ns;
      load_frames;
      lat_ns = lat;
      counts;
      digests;
      heap_words;
      held;
    },
    star )

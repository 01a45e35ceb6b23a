(* Tests for the two daemon implementations: their attribute
   representations (interned records vs wire-form eattrs), their adapters
   to the neutral TLV, and daemon-level protocol behaviour. *)

let check = Alcotest.check
let check_bool = Alcotest.check Alcotest.bool

let sample_attrs =
  [
    Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Egp);
    Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 10; 20 ]; Bgp.Attr.Set [ 30 ] ]);
    Bgp.Attr.v (Bgp.Attr.Next_hop 0x0A000001);
    Bgp.Attr.v (Bgp.Attr.Med 5);
    Bgp.Attr.v (Bgp.Attr.Local_pref 200);
    Bgp.Attr.v (Bgp.Attr.Communities [ 0x10001; 0x10002 ]);
    Bgp.Attr.v (Bgp.Attr.Originator_id 7);
    Bgp.Attr.v (Bgp.Attr.Cluster_list [ 1; 2 ]);
  ]

(* --- FRR-like interned attributes --- *)

let test_intern_roundtrip () =
  let t = Frrouting.Attr_intern.of_attrs sample_attrs in
  let back = Frrouting.Attr_intern.to_attrs t in
  check_bool "all known attrs survive" true
    (List.for_all2 Bgp.Attr.equal sample_attrs back)

let test_intern_sharing () =
  Frrouting.Attr_intern.reset_intern_table ();
  let a = Frrouting.Attr_intern.of_attrs sample_attrs in
  let b = Frrouting.Attr_intern.of_attrs sample_attrs in
  check_bool "same attrs share one record" true (a == b);
  check Alcotest.int "one table entry" 1
    (Frrouting.Attr_intern.intern_table_size ())

let test_intern_path_len_cached () =
  let t = Frrouting.Attr_intern.of_attrs sample_attrs in
  check Alcotest.int "seq(2) + set(1)" 3 t.as_path_len

let test_intern_tlv_adapter () =
  let t = Frrouting.Attr_intern.of_attrs sample_attrs in
  (* every attribute fetched through the adapter parses back identically *)
  List.iter
    (fun (a : Bgp.Attr.t) ->
      match Frrouting.Attr_intern.get_tlv t (Bgp.Attr.code a) with
      | Some tlv ->
        check_bool "tlv parses to same attr" true
          (Bgp.Attr.equal a (Bgp.Attr.of_tlv tlv))
      | None -> Alcotest.fail "attribute missing through adapter")
    sample_attrs;
  check_bool "absent attr is None" true
    (Frrouting.Attr_intern.get_tlv t Bgp.Attr.code_atomic_aggregate = None);
  (* set_tlv installs an unknown attribute in [extra] *)
  let geoloc =
    Bgp.Attr.with_flags 0xC0
      (Bgp.Attr.Unknown { code = 42; payload = Bytes.of_string "abcdefgh" })
  in
  let t' = Frrouting.Attr_intern.set_tlv t (Bgp.Attr.to_tlv geoloc) in
  check_bool "extra attr readable" true
    (Frrouting.Attr_intern.has_extra t' 42);
  (match Frrouting.Attr_intern.get_tlv t' 42 with
  | Some tlv ->
    check_bool "extra attr roundtrip" true
      (Bgp.Attr.equal geoloc (Bgp.Attr.of_tlv tlv))
  | None -> Alcotest.fail "extra missing");
  (* ... but the native encoder does not emit it *)
  check_bool "native encoder skips extras" true
    (List.for_all
       (fun (a : Bgp.Attr.t) -> Bgp.Attr.code a <> 42)
       (Frrouting.Attr_intern.to_attrs t'));
  let t'' = Frrouting.Attr_intern.remove t' 42 in
  check_bool "remove extra" false (Frrouting.Attr_intern.has_extra t'' 42)

(* --- BIRD-like eattrs --- *)

let test_eattr_roundtrip () =
  let t = Bird.Eattr.of_attrs sample_attrs in
  check_bool "all known attrs survive" true
    (List.for_all2 Bgp.Attr.equal sample_attrs (Bird.Eattr.to_attrs t))

let test_eattr_accessors () =
  let t = Bird.Eattr.of_attrs sample_attrs in
  check Alcotest.int "origin" 1 (Bird.Eattr.origin t);
  check Alcotest.int "next hop" 0x0A000001 (Bird.Eattr.next_hop t);
  check Alcotest.int "med" 5 (Bird.Eattr.med t);
  check Alcotest.int "local pref" 200 (Bird.Eattr.local_pref t);
  check Alcotest.int "originator" 7 (Bird.Eattr.originator_id t);
  check Alcotest.int "cluster len" 2 (Bird.Eattr.cluster_list_len t);
  check Alcotest.int "path len (set = 1)" 3 t.path_len;
  check Alcotest.(list int) "asns" [ 10; 20; 30 ] (Bird.Eattr.path_asns t);
  check Alcotest.int "neighbor as" 10 (Bird.Eattr.neighbor_as t);
  check Alcotest.(option int) "origin as" (Some 30) (Bird.Eattr.origin_as t);
  check_bool "contains" true (Bird.Eattr.contains_as t 20);
  check_bool "not contains" false (Bird.Eattr.contains_as t 99)

let test_eattr_wire_mutations () =
  let t = Bird.Eattr.of_attrs sample_attrs in
  let t = Bird.Eattr.prepend_as t 999 in
  check Alcotest.(list int) "prepended" [ 999; 10; 20; 30 ]
    (Bird.Eattr.path_asns t);
  check Alcotest.int "path len updated" 4 t.path_len;
  let t = Bird.Eattr.prepend_cluster t 77 in
  check Alcotest.int "cluster grew" 3 (Bird.Eattr.cluster_list_len t);
  let t = Bird.Eattr.append_community t 0xFFFF0001 in
  check_bool "community appended" true
    (List.exists
       (fun (a : Bgp.Attr.t) ->
         match a.value with
         | Bgp.Attr.Communities cs -> List.mem 0xFFFF0001 cs
         | _ -> false)
       (Bird.Eattr.to_attrs t));
  (* prepend extends the leading AS_SEQUENCE on the wire, not a new seg *)
  let t2 = Bird.Eattr.of_attrs [ Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 1 ] ]) ] in
  let t2 = Bird.Eattr.prepend_as t2 2 in
  (match Bird.Eattr.to_attrs t2 with
  | [ { value = Bgp.Attr.As_path [ Bgp.Attr.Seq [ 2; 1 ] ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected single extended sequence");
  (* prepend onto an empty path *)
  let t3 = Bird.Eattr.prepend_as Bird.Eattr.empty 5 in
  check Alcotest.(list int) "prepend to empty" [ 5 ] (Bird.Eattr.path_asns t3)

let test_eattr_tlv_adapter () =
  let t = Bird.Eattr.of_attrs sample_attrs in
  List.iter
    (fun (a : Bgp.Attr.t) ->
      match Bird.Eattr.get_tlv t (Bgp.Attr.code a) with
      | Some tlv ->
        check_bool "tlv parses back" true
          (Bgp.Attr.equal a (Bgp.Attr.of_tlv tlv))
      | None -> Alcotest.fail "missing through adapter")
    sample_attrs

(* the two representations agree through their adapters *)
let gen_attrs =
  QCheck2.Gen.(
    let asns = list_size (int_range 1 6) (int_range 1 70000) in
    map
      (fun (path, nh, med, comms) ->
        [
          Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
          Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq path ]);
          Bgp.Attr.v (Bgp.Attr.Next_hop nh);
          Bgp.Attr.v (Bgp.Attr.Med med);
          Bgp.Attr.v (Bgp.Attr.Communities comms);
        ])
      (tup4 asns (int_range 0 0xFFFFFFFF) (int_range 0 1000)
         (list_size (int_range 1 4) (int_range 0 0xFFFFFFFF))))

let prop_representations_agree =
  QCheck2.Test.make ~count:300
    ~name:"FRR and BIRD adapters expose identical TLVs" gen_attrs
    (fun attrs ->
      let frr = Frrouting.Attr_intern.of_attrs attrs in
      let bird = Bird.Eattr.of_attrs attrs in
      List.for_all
        (fun code ->
          let a = Frrouting.Attr_intern.get_tlv frr code in
          let b = Bird.Eattr.get_tlv bird code in
          match (a, b) with
          | None, None -> true
          | Some x, Some y -> Bytes.equal x y
          | _ -> false)
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 42 ])

(* --- daemon-level behaviour --- *)

let addr = Bgp.Prefix.addr_of_quad

(* The daemon-level cases take the host's pipeline module, so each one
   runs on FRR and on BIRD (see [daemon_cases]). *)
let two_routers (type d) (module D : Pipeline.S with type t = d)
    ?(as_a = 65001) ?(as_b = 65000) () =
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let a_addr = addr (10, 9, 0, 1) and b_addr = addr (10, 9, 0, 2) in
  let pa, pb = Netsim.Pipe.create sched in
  let mk name own own_as peer_as peer_addr port : d =
    D.create ~sched
      (D.config ~name ~router_id:own ~local_as:own_as ~local_addr:own
         ~hold_time:9 ())
      [
        {
          Pipeline.Common.pname = "peer";
          remote_as = peer_as;
          remote_addr = peer_addr;
          rr_client = false;
          port;
        };
      ]
  in
  let da = mk "a" a_addr as_a as_b b_addr pa in
  let db = mk "b" b_addr as_b as_a a_addr pb in
  D.start da;
  D.start db;
  ignore (Netsim.Sched.run ~until:(2 * 1_000_000) sched);
  (sched, da, db, a_addr)

let basic_attrs nh =
  [
    Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
    Bgp.Attr.v (Bgp.Attr.As_path []);
    Bgp.Attr.v (Bgp.Attr.Next_hop nh);
  ]

let best_path_asns attrs =
  List.find_map
    (fun (a : Bgp.Attr.t) ->
      match a.value with
      | Bgp.Attr.As_path segs -> Some (Bgp.Attr.as_path_asns segs)
      | _ -> None)
    attrs

let test_daemon_withdraw (module D : Pipeline.S) () =
  let sched, da, db, a_addr = two_routers (module D) () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  D.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  check_bool "learned" true (D.best_route db p <> None);
  D.withdraw_local da p;
  ignore (Netsim.Sched.run ~until:(8 * 1_000_000) sched);
  check_bool "withdrawn" true (D.best_route db p = None);
  check Alcotest.int "withdrawal counted" 1 (D.stats db).withdrawals_rx

let test_daemon_ebgp_loop_rejected (module D : Pipeline.S) () =
  let sched, da, db, a_addr = two_routers (module D) () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  (* path already contains B's AS: B must drop it *)
  D.originate da p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 65000 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop a_addr);
    ];
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  check_bool "loop rejected" true (D.best_route db p = None)

let test_daemon_update_packing (module D : Pipeline.S) () =
  (* routes sharing one attribute set travel in few packed UPDATEs *)
  let sched, da, db, a_addr = two_routers (module D) () in
  let attrs = basic_attrs a_addr in
  for i = 0 to 99 do
    D.originate da (Bgp.Prefix.v (addr (100, i, 0, 0)) 16) attrs
  done;
  ignore (Netsim.Sched.run ~until:(10 * 1_000_000) sched);
  check Alcotest.int "all learned" 100 (D.loc_count db);
  check_bool "packed into few updates" true ((D.stats da).updates_tx <= 3)

let test_daemon_session_loss_cleans_rib (module D : Pipeline.S) () =
  let sched, da, db, a_addr = two_routers (module D) () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  D.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  check_bool "learned" true (D.best_route db p <> None);
  (* kill the link; the hold timer flushes the peer's routes *)
  let peer = D.peer da 0 in
  Netsim.Pipe.set_up peer.conf.port false;
  ignore (Netsim.Sched.run ~until:(40 * 1_000_000) sched);
  check_bool "session down" false (D.peer_established db 0);
  check_bool "routes flushed" true (D.best_route db p = None)

let test_daemon_decision_prefers_shorter_path (module D : Pipeline.S) () =
  (* B hears the same prefix from two eBGP neighbours with different
     path lengths and must pick the shorter *)
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let a1 = addr (10, 9, 1, 1)
  and a2 = addr (10, 9, 1, 2)
  and b = addr (10, 9, 1, 3) in
  let p1a, p1b = Netsim.Pipe.create sched in
  let p2a, p2b = Netsim.Pipe.create sched in
  let conf pname remote_as remote_addr port =
    { Pipeline.Common.pname; remote_as; remote_addr; rr_client = false; port }
  in
  let feeder name own own_as port =
    D.create ~sched
      (D.config ~name ~router_id:own ~local_as:own_as ~local_addr:own ())
      [ conf "b" 65000 b port ]
  in
  let d1 = feeder "f1" a1 65001 p1a in
  let d2 = feeder "f2" a2 65002 p2a in
  let db =
    D.create ~sched
      (D.config ~name:"b" ~router_id:b ~local_as:65000 ~local_addr:b ())
      [ conf "f1" 65001 a1 p1b; conf "f2" 65002 a2 p2b ]
  in
  List.iter D.start [ d1; d2; db ];
  ignore (Netsim.Sched.run ~until:(2 * 1_000_000) sched);
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  D.originate d1 p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 300; 400 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop a1);
    ];
  D.originate d2 p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 300 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop a2);
    ];
  ignore (Netsim.Sched.run ~until:(10 * 1_000_000) sched);
  match Option.bind (D.best_attrs db p) best_path_asns with
  | Some path ->
    check Alcotest.int "shorter path wins" 2 (List.length path);
    check Alcotest.int "via f2" 65002 (List.hd path)
  | None -> Alcotest.fail "no route"

let test_daemon_loop_implicit_withdrawal (module D : Pipeline.S) () =
  (* RFC 4271: a received route whose AS_PATH contains the receiver's
     own AS is unfeasible — an IMPLICIT WITHDRAWAL of any earlier route
     for the same NLRI from that peer, not a silent no-op. Chaos seed
     2026 case 88 caught the silent-drop variant leaving a stale
     adj-rib-in entry that path hunting then locked into a ghost
     cycle. *)
  let sched, da, db, a_addr = two_routers (module D) () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  D.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  check_bool "learned" true (D.best_route db p <> None);
  (* A now re-advertises the same prefix over a path that already
     contains B's AS (A prepends 65001, so B receives [65001 65000]) *)
  D.originate da p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 65000 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop a_addr);
    ];
  ignore (Netsim.Sched.run ~until:(10 * 1_000_000) sched);
  check_bool "stale route implicitly withdrawn" true (D.best_route db p = None)

let test_daemon_wedged_handshake_recovers (module D : Pipeline.S) () =
  (* A session restarted while its pipe is still down loses its OPEN;
     without the FSM's connect retry (and the passive open answering a
     retry that lands in Idle) it would sit Open_sent until the hold
     timer closes it, then stay dead forever. *)
  let sched, da, db, a_addr = two_routers (module D) () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  D.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  let port = (D.peer da 0).conf.port in
  Netsim.Pipe.set_up port false;
  ignore (Netsim.Sched.run ~until:(20 * 1_000_000) sched);
  check_bool "session torn down" false (D.peer_established da 0);
  (* restart into the still-down pipe: both OPENs are lost *)
  D.restart_sessions da;
  D.restart_sessions db;
  ignore (Netsim.Sched.run ~until:(22 * 1_000_000) sched);
  Netsim.Pipe.set_up port true;
  (* no further restart: recovery must come from the FSM itself, one
     hold interval after the lost OPENs *)
  ignore (Netsim.Sched.run ~until:(45 * 1_000_000) sched);
  check_bool "A re-established" true (D.peer_established da 0);
  check_bool "B re-established" true (D.peer_established db 0);
  check_bool "route re-learned" true (D.best_route db p <> None)

let test_daemon_set_attr_malformed (module D : Pipeline.S) () =
  (* the adapters' one error contract: a malformed TLV fails the
     set_attr helper without raising and without touching the route *)
  let sched, da, db, a_addr = two_routers (module D) () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  D.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  match D.best_route db p with
  | None -> Alcotest.fail "no route"
  | Some r ->
    List.iter
      (fun (what, tlv) ->
        let route = ref r in
        check_bool (what ^ " fails") false (D.set_attr route tlv);
        check_bool (what ^ " leaves the route") true (!route == r))
      [
        ("3-byte TLV", Bytes.of_string "\x40\x05\x00");
        ("truncated payload", Bytes.of_string "\x40\x05\x00\x04\x00\x64");
      ];
    let route = ref r in
    check_bool "well-formed TLV applies" true
      (D.set_attr route
         (Bgp.Attr.to_tlv (Bgp.Attr.v (Bgp.Attr.Local_pref 300))));
    check_bool "route replaced" true (!route != r)

(* churn property: after a random sequence of announcements and
   withdrawals, the receiving daemon converges to exactly the set of
   routes still originated by the sender *)
let prop_churn_convergence =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (pair (int_range 0 9) bool (* prefix idx, announce/withdraw *)))
  in
  QCheck2.Test.make ~count:25 ~name:"daemon converges under churn" gen
    (fun ops ->
      let sched, da, db, a_addr = two_routers (module Frrouting.Bgpd) () in
      let prefixes =
        Array.init 10 (fun i -> Bgp.Prefix.v (addr (100, i, 0, 0)) 16)
      in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (i, announce) ->
          if announce then begin
            Frrouting.Bgpd.originate da prefixes.(i) (basic_attrs a_addr);
            Hashtbl.replace live i ()
          end
          else begin
            Frrouting.Bgpd.withdraw_local da prefixes.(i);
            Hashtbl.remove live i
          end;
          (* interleave a little simulated time *)
          ignore
            (Netsim.Sched.run
               ~until:(Netsim.Sched.now sched + 200_000)
               sched))
        ops;
      ignore
        (Netsim.Sched.run ~until:(Netsim.Sched.now sched + 5_000_000) sched);
      Frrouting.Bgpd.loc_count db = Hashtbl.length live
      && Array.for_all
           (fun i ->
             Hashtbl.mem live i
             = (Frrouting.Bgpd.best_route db prefixes.(i) <> None))
           (Array.init 10 (fun i -> i)))

(* the BIRD daemon passes the same protocol checks *)
let test_bird_daemon_basics () =
  let sched = Netsim.Sched.create () in
  let a_addr = addr (10, 9, 2, 1) and b_addr = addr (10, 9, 2, 2) in
  let pa, pb = Netsim.Pipe.create sched in
  let da =
    Bird.Bgpd.create ~sched
      (Bird.Bgpd.config ~name:"a" ~router_id:a_addr ~local_as:65001
         ~local_addr:a_addr ~hold_time:9 ())
      [
        {
          Bird.Bgpd.pname = "b";
          remote_as = 65000;
          remote_addr = b_addr;
          rr_client = false;
          port = pa;
        };
      ]
  in
  let db =
    Bird.Bgpd.create ~sched
      (Bird.Bgpd.config ~name:"b" ~router_id:b_addr ~local_as:65000
         ~local_addr:b_addr ~hold_time:9 ())
      [
        {
          Bird.Bgpd.pname = "a";
          remote_as = 65001;
          remote_addr = a_addr;
          rr_client = false;
          port = pb;
        };
      ]
  in
  Bird.Bgpd.start da;
  Bird.Bgpd.start db;
  ignore (Netsim.Sched.run ~until:(2 * 1_000_000) sched);
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  Bird.Bgpd.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  (match Bird.Bgpd.best_route db p with
  | Some r ->
    check Alcotest.(list int) "path prepended" [ 65001 ]
      (Bird.Eattr.path_asns r.attrs)
  | None -> Alcotest.fail "no route");
  Bird.Bgpd.withdraw_local da p;
  ignore (Netsim.Sched.run ~until:(8 * 1_000_000) sched);
  check_bool "withdrawn" true (Bird.Bgpd.best_route db p = None)

(* the same cases, in the same order, on each host *)
let daemon_cases (module D : Pipeline.S) =
  let case name f = Alcotest.test_case name `Quick (f (module D : Pipeline.S)) in
  [
    case "withdraw propagation" test_daemon_withdraw;
    case "eBGP loop rejection" test_daemon_ebgp_loop_rejected;
    case "update packing" test_daemon_update_packing;
    case "session loss cleans RIBs" test_daemon_session_loss_cleans_rib;
    case "decision: shorter path" test_daemon_decision_prefers_shorter_path;
    case "loop is implicit withdrawal" test_daemon_loop_implicit_withdrawal;
    case "wedged handshake recovers" test_daemon_wedged_handshake_recovers;
    case "set_attr rejects malformed TLVs" test_daemon_set_attr_malformed;
  ]

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "hosts"
    [
      ( "frr-attrs",
        [
          Alcotest.test_case "roundtrip" `Quick test_intern_roundtrip;
          Alcotest.test_case "hash-consing" `Quick test_intern_sharing;
          Alcotest.test_case "cached path length" `Quick
            test_intern_path_len_cached;
          Alcotest.test_case "TLV adapter" `Quick test_intern_tlv_adapter;
        ] );
      ( "bird-attrs",
        [
          Alcotest.test_case "roundtrip" `Quick test_eattr_roundtrip;
          Alcotest.test_case "accessors" `Quick test_eattr_accessors;
          Alcotest.test_case "wire mutations" `Quick test_eattr_wire_mutations;
          Alcotest.test_case "TLV adapter" `Quick test_eattr_tlv_adapter;
          qc prop_representations_agree;
        ] );
      ( "daemon",
        daemon_cases (module Frrouting.Bgpd)
        @ [
            Alcotest.test_case "BIRD daemon basics" `Quick
              test_bird_daemon_basics;
            qc prop_churn_convergence;
          ] );
      ("bird-bgpd", daemon_cases (module Bird.Bgpd));
    ]

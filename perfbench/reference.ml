(* A fixed task of the standard library alone, timed beside every
   end-to-end repetition. The speed of a shared machine drifts by a
   third over minutes, and a whole run moves with it; the task's time
   moves alike, so timings divided by it stay put. Nothing of the
   program under test runs in it, so no change to the program moves it:
   map inserts over pseudo-random keys, string allocation, hashing and a
   list sort, an allocation and pointer-chasing mix like the DUT's. *)

module Int_map = Map.Make (Int)

(* The task's time on a machine that the normalised metrics are
   expressed for: a 2-core shared Xeon in its slower phases. *)
let nominal_ns = 25_000_000

let task () =
  let rng = Random.State.make [| 42 |] in
  let m = ref Int_map.empty in
  for i = 1 to 20_000 do
    m := Int_map.add (Random.State.bits rng) (string_of_int i) !m
  done;
  let h = Hashtbl.create 1024 in
  Int_map.iter (fun k v -> Hashtbl.replace h v k) !m;
  let l = Int_map.fold (fun k _ acc -> (k lxor 0x5555) :: acc) !m [] in
  ignore (Sys.opaque_identity (h, List.sort compare l))

(* Wall nanoseconds of one task, from a compacted heap. *)
let time () =
  Gc.compact ();
  let t0 = Dut.now_ns () in
  task ();
  Dut.now_ns () - t0

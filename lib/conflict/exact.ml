module Bitset = Wl_util.Bitset

exception Found of int array

(* Backtracking k-colorability with forward checking:
   - a clique is pre-colored (symmetry breaking + early failure),
   - the next vertex is always one with the fewest remaining colors,
   - a fresh color is tried at most once per node (color-class symmetry). *)
let k_colorable g k =
  let n = Ugraph.n_vertices g in
  if k < 0 then invalid_arg "Exact.k_colorable";
  if n = 0 then Some [||]
  else begin
    let clique = Clique.greedy_clique g in
    if List.length clique > k then None
    else begin
      let coloring = Array.make n (-1) in
      (* forbidden.(v) = set of colors already used by v's neighbors. *)
      let forbidden = Array.init n (fun _ -> Bitset.create (max 1 k)) in
      let assign v c =
        coloring.(v) <- c;
        List.iter (fun w -> Bitset.add forbidden.(w) c) (Ugraph.neighbors g v)
      in
      let unassign v c =
        coloring.(v) <- -1;
        (* A neighbor may have another neighbor with color c; recompute. *)
        List.iter
          (fun w ->
            let still =
              List.exists (fun x -> coloring.(x) = c) (Ugraph.neighbors g w)
            in
            if not still then Bitset.remove forbidden.(w) c)
          (Ugraph.neighbors g v)
      in
      List.iteri (fun i v -> assign v i) clique;
      let used = ref (List.length clique) in
      let n_colored = ref (List.length clique) in
      let rec solve () =
        if !n_colored = n then raise (Found (Array.copy coloring))
        else begin
          (* Most-constrained uncolored vertex. *)
          let best = ref (-1) in
          let best_key = ref (-1, -1) in
          for v = 0 to n - 1 do
            if coloring.(v) = -1 then begin
              let key = (Bitset.cardinal forbidden.(v), Ugraph.degree g v) in
              if !best = -1 || key > !best_key then begin
                best := v;
                best_key := key
              end
            end
          done;
          let v = !best in
          let avail = min k (!used + 1) in
          if Bitset.cardinal forbidden.(v) < avail then
            for c = 0 to avail - 1 do
              if not (Bitset.mem forbidden.(v) c) then begin
                let was_used = !used in
                if c = !used then incr used;
                assign v c;
                incr n_colored;
                solve ();
                decr n_colored;
                unassign v c;
                used := was_used
              end
            done
        end
      in
      try
        solve ();
        None
      with Found coloring -> Some coloring
    end
  end

let chromatic_number g =
  let lower = Clique.clique_number g in
  let upper = Coloring.n_colors (Coloring.best_heuristic g) in
  let rec search k = if k >= upper then upper else
    match k_colorable g k with Some _ -> k | None -> search (k + 1)
  in
  search lower

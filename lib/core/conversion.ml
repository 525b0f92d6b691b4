open Wl_digraph

let segments_of_path g converters p =
  let is_converter = Array.make (Digraph.n_vertices g) false in
  List.iter (fun v -> is_converter.(v) <- true) converters;
  let verts = Dipath.vertices p in
  let n = List.length verts in
  (* Cut after every interior converter vertex. *)
  let rec cut acc current i = function
    | [] -> List.rev (List.rev current :: acc)
    | v :: rest ->
      let current = v :: current in
      if i > 0 && i < n - 1 && is_converter.(v) then
        cut (List.rev current :: acc) [ v ] (i + 1) rest
      else cut acc current (i + 1) rest
  in
  cut [] [] 0 verts
  |> List.filter (fun seg -> List.length seg >= 2)
  |> List.map (Dipath.make g)

let split_instance inst ~converters =
  let g = Instance.graph inst in
  let segments =
    List.concat_map (segments_of_path g converters) (Instance.paths_list inst)
  in
  Instance.make (Instance.dag inst) segments

let wavelengths inst ~converters =
  Solver.solve (split_instance inst ~converters)

let greedy_placement inst ~budget =
  if budget < 0 then invalid_arg "Conversion.greedy_placement";
  let g = Instance.graph inst in
  let n = Digraph.n_vertices g in
  let rec place chosen report remaining =
    if remaining = 0 then (List.rev chosen, report)
    else begin
      let best = ref None in
      for v = n - 1 downto 0 do
        if not (List.mem v chosen) then begin
          let candidate = wavelengths inst ~converters:(v :: chosen) in
          let better =
            match !best with
            | None -> candidate.Solver.n_wavelengths < report.Solver.n_wavelengths
            | Some (_, r) ->
              candidate.Solver.n_wavelengths < r.Solver.n_wavelengths
          in
          if better then best := Some (v, candidate)
        end
      done;
      match !best with
      | None -> (List.rev chosen, report)
      | Some (v, r) -> place (v :: chosen) r (remaining - 1)
    end
  in
  place [] (Solver.solve inst) budget


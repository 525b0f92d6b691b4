let arc_load inst a = Instance.n_paths_through inst a

let pi inst = Instance.max_arc_load inst

let max_load_arc_among inst candidates =
  match candidates with
  | [] -> invalid_arg "Load.max_load_arc_among: empty candidate list"
  | first :: rest ->
    List.fold_left
      (fun best a -> if arc_load inst a > arc_load inst best then a else best)
      first rest

open Anon_kernel

module Make (P : sig
  val failures_bound : int
end) =
struct
  let name = Printf.sprintf "floodset(f=%d)" P.failures_bound

  type msg = Value.Set.t

  type state = { seen : Value.Set.t }

  let msg_compare = Value.Set.compare
  let msg_size = Value.Set.cardinal
  let pp_msg = Value.pp_set
  let leader _ = None

  let initialize v =
    let st = { seen = Value.Set.singleton v } in
    (st, st.seen)

  let compute st ~round ~inbox:current =
    let seen = List.fold_left Value.Set.union st.seen current in
    let st = { seen } in
    if round >= P.failures_bound + 1 then
      (st, st.seen, Some (Value.Set.min_elt seen))
    else (st, st.seen, None)
end

let cout stats =
  List.fold_left
    (fun s (st : Exec.op_stat) ->
      if st.op = None then s else s +. float_of_int st.rows_out)
    0.0 stats

let actual_cout inst tree = cout (snd (Exec.eval_stats inst tree))

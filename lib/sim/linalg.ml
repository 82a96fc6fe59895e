exception Singular

let solve a b =
  if Array.length a <> Array.length b then
    invalid_arg "Linalg.solve: dimension mismatch";
  match Lu.factor a with
  | Ok f -> Lu.resolve f b
  | Error `Singular -> raise Singular

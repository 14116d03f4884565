let connect ?(attempts = 1) ?(delay_s = 0.05) ~socket_path () =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> Ok fd
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if n > 1 then begin
          (* the server may still be binding its socket: back off and retry *)
          ignore (Unix.select [] [] [] delay_s);
          go (n - 1)
        end
        else
          Error
            (Printf.sprintf "connect %s: %s" socket_path
               (Unix.error_message err))
  in
  go (max 1 attempts)

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rpc fd request =
  match Proto.write_frame fd (Proto.request_to_json request) with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "send: %s" (Unix.error_message err))
  | () -> (
      match Proto.read_frame fd with
      | Ok (Some json) -> Proto.reply_of_json json
      | Ok None -> Error "server closed the connection"
      | Error e -> Error e)

let ask fd ~arch ~stencil ~space ~time =
  match rpc fd (Proto.Ask { arch; stencil; space; time }) with
  | Ok (Proto.Answer answer) -> Ok answer
  | Ok (Proto.Error_reply msg) -> Error msg
  | Ok (Proto.Stats_reply _) -> Error "unexpected reply to ask"
  | Error e -> Error e

let stats fd =
  match rpc fd Proto.Stats with
  | Ok (Proto.Stats_reply { metrics; server }) -> Ok (metrics, server)
  | Ok (Proto.Error_reply msg) -> Error msg
  | Ok (Proto.Answer _) -> Error "unexpected reply to stats"
  | Error e -> Error e

let shutdown fd =
  match rpc fd Proto.Shutdown with
  | Ok (Proto.Stats_reply _) -> Ok ()
  | Ok (Proto.Error_reply msg) -> Error msg
  | Ok (Proto.Answer _) -> Error "unexpected reply to shutdown"
  | Error e -> Error e

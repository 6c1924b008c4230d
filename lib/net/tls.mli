(** TLS handshake state machine with a cost model (axtls, RSA-1024).

    The message flow is the classic RSA key-exchange handshake; the
    dominant cost is the server's private-key operation. Costs are
    calibrated so a 14-core Linux box saturates around 1,400 HTTPS
    requests/second with 1024-bit RSA, matching Fig 16c. *)

type cipher = {
  cipher_name : string;
  server_private_key_cpu : float;  (** RSA decrypt, reference seconds *)
  symmetric_per_kb : float;
}

val rsa_1024 : cipher

(** Handshake message types, in protocol order. *)
type message =
  | Client_hello
  | Server_hello
  | Certificate
  | Server_hello_done
  | Client_key_exchange
  | Change_cipher_spec
  | Finished

type state

val initial : state

val step : state -> message -> (state, string) result
(** Advance the state machine; errors on out-of-order messages. *)

val is_complete : state -> bool

val handshake_messages : message list

val server_handshake_cpu : cipher -> stack:Stack.t -> float
(** Total server-side CPU for one handshake + small response. *)

val serve_request_cpu :
  cipher -> stack:Stack.t -> response_kb:float -> float
(** Full request: handshake + symmetric transfer of the response. *)

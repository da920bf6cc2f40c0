"""Serve a reactor database over TCP and talk to it with a client.

The serving layer puts a real client/server boundary in front of a
``ReactorDatabase``: transactions originate outside the process that
runs them, responses are matched by request id (out of order is fine),
and overload is shed at the wire with a typed ``Overloaded`` answer
instead of unbounded queueing.

This example starts a server on a background thread, connects a
``TcpClient``, runs the same banking transactions as ``quickstart.py``
over the wire — including two multiplexed logical sessions — and then
deliberately overloads a tiny admission bound to show a typed shed.

Run:  python examples/serve_and_connect.py
"""

from repro import ReactorDatabase, ReactorType, shared_nothing
from repro.client import TcpClient
from repro.relational import float_col, make_schema, str_col
from repro.serving import Overloaded, serve_in_thread

account = ReactorType("Account", lambda: [
    make_schema("ledger",
                [str_col("owner"), float_col("balance")],
                ["owner"]),
])


@account.procedure
def open_account(ctx, opening_balance):
    ctx.insert("ledger", {"owner": ctx.my_name(),
                          "balance": opening_balance})


@account.procedure
def balance_of(ctx):
    return ctx.lookup("ledger", ctx.my_name())["balance"]


@account.procedure
def credit(ctx, amount):
    row = ctx.lookup("ledger", ctx.my_name())
    new_balance = row["balance"] + amount
    if new_balance < 0:
        ctx.abort("insufficient funds")
    ctx.update("ledger", ctx.my_name(), {"balance": new_balance})
    return new_balance


@account.procedure
def transfer(ctx, destination, amount):
    fut = yield ctx.call(destination, "credit", amount)
    yield ctx.call(ctx.my_name(), "credit", -amount)
    new_destination_balance = yield ctx.get(fut)
    return new_destination_balance


def main():
    names = ["alice", "bob", "carol", "dave"]
    db = ReactorDatabase(shared_nothing(4),
                         [(n, account) for n in names])

    # Serve on a background event-loop thread; port 0 = pick a free one.
    server = serve_in_thread(db)
    print(f"serving on {server.host}:{server.port}")

    client = TcpClient(server.host, server.port).connect()
    print(f"negotiated protocol v{client.protocol_version}, "
          f"codec {client.codec}")

    for name in names:
        client.call(name, "open_account", 100.0)
    client.call("alice", "transfer", "bob", 30.0)

    # Two logical sessions multiplexed over the one connection.
    teller, auditor = client.session(), client.session()
    pending = teller.submit("carol", "transfer", "dave", 25.0)
    balance = auditor.call("alice", "balance_of", read_only=True)
    print(f"  alice balance (auditor session): {balance}")
    print(f"  carol->dave transfer committed: "
          f"{pending.wait(5.0).committed}")
    client.close()
    server.stop()

    # Overload: a deliberately tiny admission bound sheds bursts with
    # a typed answer carrying a retry-after hint.
    server = serve_in_thread(db, max_inflight=2)
    client = TcpClient(server.host, server.port).connect()
    burst = client.submit_many(
        [("alice", "credit", (1.0,)) for _ in range(16)])
    outcomes = [s.wait(5.0) for s in burst]
    shed = [o for o in outcomes if o.shed]
    print(f"  burst of {len(burst)}: "
          f"{sum(o.committed for o in outcomes)} committed, "
          f"{len(shed)} shed")
    try:
        shed[0].unwrap()
    except Overloaded as refused:
        print(f"  typed shed: retry after "
              f"{refused.retry_after_us:.0f} usec")
    client.close()
    server.stop()


if __name__ == "__main__":
    main()

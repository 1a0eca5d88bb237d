"""Known-bad pickle-safety fixture (linted as AST, never imported)."""


def submit_work(executor, items):
    return executor.map(lambda item: item * 2, items)


def make_provider(total) -> StateProvider:
    def state_of(rank):
        return rank % total

    return state_of


register_workload("bad", lambda args, total, seed: None)

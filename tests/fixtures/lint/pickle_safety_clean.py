"""Known-clean pickle-safety fixture: module-level callables only."""


class Provider:
    def __init__(self, total):
        self.total = total

    def __call__(self, rank):
        return rank % self.total


def make_provider(total) -> StateProvider:
    return Provider(total)


register_workload("good", Provider)

"""Adam optimizer for Tensor parameters."""

import numpy as np


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One bias-corrected update on each parameter that has a grad.

        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        p -= lr (m / c1) / (sqrt(v / c2) + eps) (Kingma & Ba, 2015), each
        operation in that order in the parameter's dtype; the moments and
        the parameter are updated in place.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= m / c1 * self.lr / (np.sqrt(v / c2) + self.eps)
